"""The teeth of the verification suites: each broken convention, patched
into the library one at a time, must fail the suites pinned for it.

A later second route shows up here as a larger set of failing suites,
and a blunted check as a smaller one.  The negated labeling exponent
fails no suite: every rule coefficient ([2], [3] and 1) is invariant
under t -> 1/t, so no suite sees the sign, and its empty set is the
known gap.
"""

import dataclasses

import pytest

from a2webs import clear_caches, immanants, labelings, spider
from a2webs.cli import run_suite
from a2webs.exactmath import LaurentPoly, qint


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


def _hecke_plus_one(mp):
    def broken(n, i):
        return spider.generator_combo(n, i).scale(LaurentPoly.t_power(2)) + spider.WebCombo.unit(n)

    mp.setattr(spider, "hecke_generator", broken)


def _exponent(mp, change):
    """Pass every labeling exponent through change(exponent, labeling)."""
    compile_weight = labelings._compile_weight

    def broken(w):
        exponent = compile_weight(w)
        return lambda f: change(exponent(f), f)

    mp.setattr(labelings, "_compile_weight", broken)


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
    "T_i = t^2 E_i + 1": _hecke_plus_one,
    "the labeling exponent doubled": lambda mp: _exponent(mp, lambda k, f: 2 * k),
    "+2 on labelings whose edge 0 is labeled 1": lambda mp: _exponent(mp, lambda k, f: k + 2 * (f[0] == 1)),
    "the labeling exponent negated": lambda mp: _exponent(mp, lambda k, f: -k),
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
    "a loop worth [2]": {"networks"},
    "T_i = t^2 E_i + 1": {"relations"},
    "the labeling exponent doubled": {"ci"},
    "+2 on labelings whose edge 0 is labeled 1": {"kappa"},
    "the labeling exponent negated": set(),
    "one table row entry + 1": {"bridge", "minors", "networks"},
}


def failing_suites(mp, mutant: str, n: int) -> set[str]:
    """The suites that fail in run_suite("all", n, seed=0) with the
    mutant patched in through the monkeypatch mp.  The memos are
    emptied before the run and again after the patch is undone, so no
    broken result outlives it."""
    clear_caches()
    try:
        MUTANTS[mutant](mp)
        report = run_suite("all", n, seed=0)
    finally:
        mp.undo()
        clear_caches()
    return {c["name"] for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("mutant", TEETH)
def test_each_mutant_fails_its_suites(monkeypatch, mutant):
    assert failing_suites(monkeypatch, mutant, 4) == TEETH[mutant]
