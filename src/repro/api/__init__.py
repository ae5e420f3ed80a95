"""The recommended public surface: one :class:`Database` session object.

.. code-block:: python

    from repro.api import Database

    with Database() as db:
        db.load("bib.xml", BIB_XML)
        by_year = db.create_view("by_year", QUERY, policy="deferred")
        db.subscribe("by_year", lambda event: print("refreshed:", event))

        with db.batch():
            db.update("bib.xml").at("/bib/book[2]") \\
              .insert("<book year='1994'>...</book>", position="after")
            db.update("bib.xml").at("/bib/book[1]/title") \\
              .replace_with("TCP/IP Illustrated, 2nd ed")
        db.execute('for $b in document("bib.xml")/bib/book '
                   'where $b/title = "Data on the Web" '
                   'update $b delete $b')

        print(by_year.read())
        assert by_year.read() == by_year.recompute()

Everything funnels through the shared validation router exactly once;
no raw FlexKeys, storage managers or update requests appear in user
code.  The per-layer surface underneath (:class:`repro.StorageManager`,
:class:`repro.ViewRegistry`, …) stays available for engine-level work.
"""

from ..multiview.registry import RefreshEvent
from ..updates.errors import UpdateError
from .builder import DocumentUpdater, Update, UpdateSite
from .database import Batch, Database
from .views import Subscription, View

__all__ = [
    "Batch",
    "Database",
    "DocumentUpdater",
    "RefreshEvent",
    "Subscription",
    "Update",
    "UpdateError",
    "UpdateSite",
    "View",
]
