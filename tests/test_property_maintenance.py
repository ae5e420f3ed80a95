"""Property-based maintenance testing (hypothesis).

The central invariant of the whole system (the paper's correctness
criterion, proven in Chapters 4-8): for *any* sequence of source update
primitives, incrementally refreshing the materialized extent produces
exactly the document that full recomputation over the updated sources
would — content and order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StorageManager, UpdateRequest, XmlDocument

from .helpers import MaintainedView

YEARS = ["1994", "1998", "2002"]
TITLES = [f"Title {i}" for i in range(8)]

GROUPED_QUERY = """<result>{
for $y in distinct-values(doc("bib.xml")/bib/book/@year)
order by $y
return <g Y="{$y}">{
 for $b in doc("bib.xml")/bib/book where $y = $b/@year return $b/title
}</g>}</result>"""

FLAT_QUERY = ('<result>{for $b in doc("bib.xml")/bib/book '
              'where $b/@year = "1994" return $b}</result>')

JOIN_QUERY = """<result>{
for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
where $b/title = $e/b-title
return <i>{$b/title}{$e/price}</i>}</result>"""


def _book(i, year, title):
    return (f'<book year="{year}"><title>{title}</title>'
            f'<note>note {i}</note></book>')


#: One update instruction: (action, position-seed, year-seed, title-seed).
_instruction = st.tuples(
    st.sampled_from(["insert", "insert", "delete", "modify"]),
    st.integers(0, 99), st.integers(0, 2), st.integers(0, 7))


def _setup(query, n_initial=3):
    storage = StorageManager()
    books = "".join(_book(i, YEARS[i % 3], TITLES[i % 8])
                    for i in range(n_initial))
    storage.register(XmlDocument.from_string("bib.xml",
                                             f"<bib>{books}</bib>"))
    prices = "".join(
        f'<entry><price>{10 + i}</price><b-title>{TITLES[i]}</b-title></entry>'
        for i in range(0, 8, 2))
    storage.register(XmlDocument.from_string("prices.xml",
                                             f"<prices>{prices}</prices>"))
    return storage, MaintainedView(storage, query)


def _materialize_instruction(storage, instruction, step):
    action, pos, year_seed, title_seed = instruction
    root = storage.root_key("bib.xml")
    books = storage.children(root, "book")
    if action == "insert" or not books:
        fragment = _book(1000 + step, YEARS[year_seed], TITLES[title_seed])
        if books:
            anchor = books[pos % len(books)]
            return UpdateRequest.insert("bib.xml", anchor, fragment,
                                        "after" if pos % 2 else "before")
        return UpdateRequest.insert("bib.xml", root, fragment, "into")
    target = books[pos % len(books)]
    if action == "delete":
        return UpdateRequest.delete("bib.xml", target)
    # modify: retitle (a predicate path in JOIN/GROUPED views -> exercises
    # decomposition) or change the note (plain refresh path).
    if pos % 2:
        node = storage.children(target, "title")[0]
        return UpdateRequest.modify("bib.xml", node,
                                    TITLES[title_seed])
    node = storage.children(target, "note")[0]
    return UpdateRequest.modify("bib.xml", node, f"edited {step}")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_instruction, min_size=1, max_size=8))
def test_grouped_view_always_matches_recompute(instructions):
    storage, view = _setup(GROUPED_QUERY)
    for step, instruction in enumerate(instructions):
        update = _materialize_instruction(storage, instruction, step)
        view.apply_updates([update])
        assert view.to_xml() == view.recompute_xml()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_instruction, min_size=1, max_size=8))
def test_selection_view_always_matches_recompute(instructions):
    storage, view = _setup(FLAT_QUERY)
    for step, instruction in enumerate(instructions):
        update = _materialize_instruction(storage, instruction, step)
        view.apply_updates([update])
        assert view.to_xml() == view.recompute_xml()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_instruction, min_size=1, max_size=6))
def test_join_view_always_matches_recompute(instructions):
    storage, view = _setup(JOIN_QUERY)
    for step, instruction in enumerate(instructions):
        update = _materialize_instruction(storage, instruction, step)
        view.apply_updates([update])
        assert view.to_xml() == view.recompute_xml()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_instruction, min_size=2, max_size=10))
def test_batched_application_matches_recompute(instructions):
    """Applying the whole sequence in ONE apply_updates call (batching
    heterogeneous runs) is equally correct."""
    storage, view = _setup(GROUPED_QUERY)
    updates = []
    for step, instruction in enumerate(instructions):
        update = _materialize_instruction(storage, instruction, step)
        # materialize instruction resolves against current storage: apply
        # the storage part immediately by going through the view one by
        # one would defeat batching; instead only batch inserts that don't
        # depend on prior deletes.  Keep it simple: stop collecting at the
        # first delete/modify of a possibly-stale target.
        updates.append(update)
        if instruction[0] != "insert":
            break
    view.apply_updates(updates)
    assert view.to_xml() == view.recompute_xml()
