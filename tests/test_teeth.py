"""The teeth of the verification suites: each broken convention, patched
into the library one at a time, must fail the suites pinned for it.

A later second route shows up here as a larger set of failing suites,
and a blunted check as a smaller one.  Three mutants fail no suite.
Two of them are symmetries, not gaps, and no internal route can see
them (test_the_label_involution_and_the_loop_sign_move_no_profile):
  - The negated labeling exponent is the label involution k -> 4 - k:
    with it each boundary profile is the true one with every label k
    read as 4 - k.  Every statement the suites check is invariant under
    that relabeling (it swaps blocks 1 and 3 of a triple, whose product
    of minors does not change), so only a route tied to the paper's own
    orientation, such as a golden file, could see the sign.
  - A loop term of the wrong sign, -2(4 - 2k) for a loop labeled k,
    moves no profile: a loop takes each label freely, and the sign only
    swaps the terms of its labels 1 and 3.
The third is a gap: a face rewrite that drops the web's loops.  The
suites draw one loop, in the relations row of its value, on a web with
no face, and reduce_web and transport erase loops first.  The
every-site check sees it on products with loops drawn below them.
"""

import dataclasses
import functools
import random

import pytest

from a2webs import clear_caches, immanants, labelings, spider
from a2webs.cli import run_suite
from a2webs.exactmath import LaurentPoly, qint
from a2webs.labelings import boundary_profile
from a2webs.spider import all_orders_agree, product_web, reduce_web
from a2webs.webcore import PlanarMap
from oracles import reduce_by_labelings, table_by_least_words
from test_labelings import mixed_products, random_web_with_loops, strand_with_closed_component
from test_spider import with_loops


def _faces(mp, size, change):
    """Pass the outcomes of every face of the given size through change."""
    resolve = spider._resolve_face

    def broken(w, orbit):
        outcomes = resolve(w, orbit)
        return change(outcomes) if len(orbit) == size else outcomes

    mp.setattr(spider, "_resolve_face", broken)


def _scaled(outcomes, c):
    return tuple(dataclasses.replace(o, coeff=o.coeff * c) for o in outcomes)


def _loops_worth_two(mp):
    strip = spider._strip_loops

    def broken(w):
        return dataclasses.replace(strip(w), coeff=qint(2) ** w.pmap.loops)

    mp.setattr(spider, "_strip_loops", broken)


def _face_drops_loops(mp):
    rebuild = spider._rebuild

    def broken(m, *args):
        raw, carry = rebuild(m, *args)
        return PlanarMap(raw.n, raw.rot), carry

    mp.setattr(spider, "_rebuild", broken)


def _hecke_plus_one(mp):
    def broken(n, i):
        return spider.generator_combo(n, i).scale(LaurentPoly.t_power(2)) + spider.WebCombo.unit(n)

    mp.setattr(spider, "hecke_generator", broken)


def _fork_worth_three(mp):
    product = spider.web_product

    @functools.cache
    def broken(a, b):
        if spider.fork_absorbs(a, b):
            return tuple((w, v * qint(3)) for w, v in spider.reduce_web(a).terms())
        return product(a, b)

    mp.setattr(spider, "web_product", broken)


def _exponent(mp, change):
    """Pass every labeling exponent through change(exponent, labeling)."""
    compile_weight = labelings._compile_weight

    def broken(w):
        exponent = compile_weight(w)
        return lambda f: change(exponent(f), f)

    mp.setattr(labelings, "_compile_weight", broken)


def _loop_sign_flipped(mp):
    mp.setattr(labelings, "_LOOP", tuple(tuple(-x for x in row) for row in labelings._LOOP))


def _q1_row_plus_one(mp):
    q1_row = immanants._q1_row

    def broken(combo):
        row = q1_row(combo)
        for web in row:
            row[web] += 1
            break
        return row

    mp.setattr(immanants, "_q1_row", broken)


MUTANTS = {
    "none": lambda mp: None,
    "square outcomes doubled": lambda mp: _faces(mp, 4, lambda oc: _scaled(oc, LaurentPoly.const(2))),
    "a square keeps only its first outcome": lambda mp: _faces(mp, 4, lambda oc: oc[:1]),
    "the bigon times t^2": lambda mp: _faces(mp, 2, lambda oc: _scaled(oc, LaurentPoly.t_power(2))),
    "a loop worth [2]": _loops_worth_two,
    "a face rewrite drops the web's loops": _face_drops_loops,
    "T_i = t^2 E_i + 1": _hecke_plus_one,
    "the fork absorbs E_i as [3]": _fork_worth_three,
    "the labeling exponent doubled": lambda mp: _exponent(mp, lambda k, f: 2 * k),
    "+2 on labelings whose edge 0 is labeled 1": lambda mp: _exponent(mp, lambda k, f: k + 2 * (f[0] == 1)),
    "the labeling exponent negated": lambda mp: _exponent(mp, lambda k, f: -k),
    "a loop term of -2(4 - 2k)": _loop_sign_flipped,
    "one table row entry + 1": _q1_row_plus_one,
}

SQUARE = {"bridge", "ci", "confluence", "minors", "networks", "relations", "tnn"}
# the suites of run_suite("all", n, seed=0) that fail under each mutant,
# the same at n = 4 and n = 5
TEETH = {
    "none": set(),
    "square outcomes doubled": SQUARE,
    "a square keeps only its first outcome": SQUARE,
    "the bigon times t^2": {"ci", "confluence", "relations"},
    "a loop worth [2]": {"networks", "relations"},
    "a face rewrite drops the web's loops": set(),
    # a one-letter word's Hecke image is hecke_generator's, so every
    # image, and each suite reading the table, sees the wrong generator
    "T_i = t^2 E_i + 1": {"bridge", "confluence", "minors", "networks", "relations", "tnn"},
    # every Hecke image is folded through the fork rule, and the Hecke
    # quadratic in relations multiplies E_i by itself through it
    "the fork absorbs E_i as [3]": {"bridge", "confluence", "minors", "networks", "relations", "tnn"},
    "the labeling exponent doubled": {"ci"},
    "+2 on labelings whose edge 0 is labeled 1": {"kappa"},
    "the labeling exponent negated": set(),
    "a loop term of -2(4 - 2k)": set(),
    "one table row entry + 1": {"bridge", "minors", "networks"},
}


def under(mp, mutant: str, fn, xs) -> list:
    """fn of each x with the mutant patched in through the monkeypatch
    mp.  The memos are emptied before the run and again after the patch
    is undone, so no broken result outlives it."""
    clear_caches()
    try:
        MUTANTS[mutant](mp)
        return [fn(x) for x in xs]
    finally:
        mp.undo()
        clear_caches()


def failing_suites(mp, mutant: str, n: int) -> set[str]:
    """The suites that fail in run_suite("all", n, seed=0) with the
    mutant patched in."""
    [report] = under(mp, mutant, lambda k: run_suite("all", k, seed=0), [n])
    return {c["name"] for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("mutant", TEETH)
def test_each_mutant_fails_its_suites(monkeypatch, mutant):
    assert failing_suites(monkeypatch, mutant, 4) == TEETH[mutant]


def test_every_site_sees_a_face_rewrite_drop_loops(monkeypatch):
    # products with one to three loops drawn below them: a site past the
    # loop site rewrites a face first, and the mutant loses the loops' [3]s
    rng = random.Random(26)
    webs = []
    for _ in range(30):
        n = rng.randint(2, 4)
        w = product_web(n, [rng.randrange(1, n) for _ in range(rng.randint(1, 6))])
        webs.append(with_loops(w, rng.randint(1, 3)))
    assert under(monkeypatch, "none", all_orders_agree, webs) == [True] * 30
    assert under(monkeypatch, "a face rewrite drops the web's loops", all_orders_agree, webs).count(False) == 24


# the products of 40 seeded ones whose reduction each broken face rule moves
FACE_MUTANTS = {"square outcomes doubled": 3, "a square keeps only its first outcome": 3, "the bigon times t^2": 28}


@pytest.mark.parametrize("mutant", FACE_MUTANTS)
def test_the_labeling_route_sees_each_broken_face_rule(monkeypatch, mutant):
    # reduce_by_labelings reads no rewrite rule: made before the patch,
    # its answers disagree with the broken reduce_web
    webs = mixed_products(random.Random(23), 40)
    clear_caches()
    want = [reduce_by_labelings(w) for w in webs]
    assert under(monkeypatch, "none", reduce_web, webs) == want
    got = under(monkeypatch, mutant, reduce_web, webs)
    assert sum(a != b for a, b in zip(got, want)) == FACE_MUTANTS[mutant]


def test_the_label_involution_and_the_loop_sign_move_no_profile(monkeypatch):
    # every irreducible web for n <= 5, seeded products with D2 factors,
    # webs with loops and strands beside a closed component
    rng = random.Random(54)
    webs = [D for n in range(1, 6) for D in immanants.irreducible_webs(n)]
    webs += mixed_products(rng, 60)
    webs += [random_web_with_loops(rng) for _ in range(40)]
    closed = []
    while len(closed) < 26:
        w = strand_with_closed_component(rng)
        if w is not None:
            closed.append(w)
    webs += closed
    true = under(monkeypatch, "none", boundary_profile, webs)
    involuted = [{tuple(4 - k for k in g): c for g, c in p.items()} for p in true]
    assert under(monkeypatch, "the labeling exponent negated", boundary_profile, webs) == involuted
    assert under(monkeypatch, "a loop term of -2(4 - 2k)", boundary_profile, webs) == true
    moved = sum(a != b for a, b in zip(true, involuted))
    looped = sum(w.pmap.loops > 0 for w in webs)
    assert (len(webs), moved, looped) == (261, 221, 31)


def test_the_least_word_route_sees_a_table_row_entry_moved(monkeypatch):
    # table_by_least_words reads no Hecke image: made before the patch,
    # its rows disagree with the broken table's
    clear_caches()
    want = table_by_least_words(4)

    def rows(n):
        t = immanants.immanant_table(n)
        return {D: t._row(D) for D in t.webs}

    [none] = under(monkeypatch, "none", rows, [4])
    [got] = under(monkeypatch, "one table row entry + 1", rows, [4])
    assert none == want
    assert sum(got[D] != want[D] for D in want) == len(want) == 23
