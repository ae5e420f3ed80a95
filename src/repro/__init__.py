"""repro — Incremental Maintenance of Materialized XQuery Views.

A from-scratch Python reproduction of El-Sayed's ICDE 2006 system (full
version: WPI PhD dissertation, 2005): an XQuery engine over the XAT algebra
with FlexKey order encoding and semantic identifiers, plus the V-P-A
(Validate / Propagate / Apply) incremental view maintenance framework.

Quickstart (the recommended session API — see :mod:`repro.api`)::

    from repro import Database

    with Database() as db:
        db.load("bib.xml", "<bib>...</bib>")
        view = db.create_view("books", '<r>{for $b in '
                              'doc("bib.xml")/bib/book return $b}</r>')
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert view.read() == view.recompute()

The per-layer surface (:class:`StorageManager`, :class:`ViewRegistry`
— the one V-P-A driver, which ``Database`` wraps — and raw
:class:`UpdateRequest`\\ s) stays available for engine-level work.
"""

from . import obs
from .api import Batch, Database, Subscription, Update, View
from .durability import DurabilityManager, RecoveryReport
from .engine import Engine
from .flexkeys import FlexKey
from .multiview import (MaintenancePolicy, MaintenanceReport,
                        MultiViewReport, RefreshEvent, ViewRegistry)
from .storage import StorageManager
from .translate import TranslationError, Translator, translate_query
from .updates import Sapt, UpdateError, UpdateRequest, UpdateTree
from .xmlmodel import XmlDocument, XmlNode, parse_document, parse_fragment, \
    serialize
from .xquery import parse_query
from .xquery.updates import apply_xquery_update, parse_update, resolve_path

__version__ = "1.1.0"

__all__ = [
    "Batch",
    "Database",
    "DurabilityManager",
    "Engine",
    "FlexKey",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MultiViewReport",
    "RecoveryReport",
    "RefreshEvent",
    "Sapt",
    "StorageManager",
    "Subscription",
    "TranslationError",
    "Translator",
    "Update",
    "UpdateError",
    "UpdateRequest",
    "UpdateTree",
    "View",
    "ViewRegistry",
    "XmlDocument",
    "XmlNode",
    "apply_xquery_update",
    "obs",
    "parse_document",
    "parse_fragment",
    "parse_query",
    "parse_update",
    "resolve_path",
    "serialize",
    "translate_query",
]
