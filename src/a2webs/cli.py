"""Command line front end and the verification-suite runner.

Subcommands expose the library over JSON: `reduce` rewrites a product
expression into the irreducible basis, `labelings` counts consistent
labelings, `immanants` evaluates web immanants of a matrix or dumps
the coefficient table, `decompose` expands a product of three
complementary minors, `bridge` expands a two-label immanant times a
minor, `network` works on weighted planar network files, and `verify`
runs named identity suites and exits 0 only if every check passes.

Exit codes: 0 success, 1 a check failed, 2 bad input (one `error:`
line), 3 a failed internal invariant (one `error: internal:` line;
within `verify` it fails its suite's check instead), 141 (128 +
SIGPIPE, as for a filter killed by the signal) when the reader closes
stdout early; none of them prints a traceback.

Every exact value is written by exactmath.exact_str ("p/q" for a
rational), in full under the interpreter's cap on int-to-string
conversion, which the CLI leaves as the user set it; keys are emitted
in a deterministic order, a web's in code order (`_by_web`); every
randomized check is reproducible from the seed recorded in its report.
Timing fields are informational and are the only part of a report
that varies between runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
import time
from typing import Callable, Iterable, Optional, Sequence

from .exactmath import MAX_QUOTED_CHARS, LaurentPoly, eval_q1, exact_str, parse_int, quoted
from .immanants import (
    STRAND_BOUNDS,
    ExactMatrix,
    evaluate_immanant,
    immanant_table,
    irreducible_webs,
    theta_image,
    tnn_check,
)
from .labelings import (
    boundary_profile,
    boundary_restriction,
    coefficient_via_labelings,
    enumerate_labelings,
    profile_product,
    weighted_count,
    word_counts,
    word_from_text,
    word_to_text,
)
from .minors import (
    all_triples,
    check_triple,
    decompose_triple,
    minor,
    random_rational_matrix,
    random_triple,
    rank_check,
    triple_blocks,
    triple_word,
)
from .networks import (
    PlanarNetwork,
    corollary_check,
    identity_network,
    lindstrom_check,
    network_immanants,
    path_matrix,
    random_planar_network,
)
from .perms import all_reduced_words, count_avoiding, is_perm, kostka_three_column
from .spider import (
    WebCombo,
    all_orders_agree,
    generator_combo,
    product_web,
    reduce_combo,
    reduce_web,
    relation_suite,
    second_generator_combo,
)
from .tlbridge import avoiding_321, bridge_expansion, matching_of_perm, pair_expansion, tl_immanant
from .webcore import Web, WebError

def _check_bound(name: str, n: int, what: str) -> None:
    if n > STRAND_BOUNDS[name]:
        raise WebError(f"{what} documented up to n={STRAND_BOUNDS[name]}, got {quoted(n)}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _webkey(code: Sequence[int]) -> str:
    return ",".join(map(str, code))


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(map(_number, text.split(",")))
    except ValueError as exc:  # not an integer, or overlong
        raise WebError(f"bad integer list {quoted(text)}: {exc}") from exc


def _parse_perm(text: str) -> tuple[int, ...]:
    if "," in text:
        w = _parse_ints(text)
    elif text.isdecimal():
        w = tuple(int(ch) for ch in text)
    else:
        raise WebError(f"bad permutation {quoted(text)}: use digits like 231")
    if not is_perm(w):
        raise WebError(f"{quoted(text)} is not a permutation of 1..{len(w)}")
    return w


def _by_web(pairs: Iterable[tuple[Web, object]], value: Callable) -> dict:
    """The JSON map from each web's key to value(c), in code order."""
    return {_webkey(D.code): value(c) for D, c in sorted(pairs, key=lambda t: t[0].code)}


# ---------------------------------------------------------------------------
# Product expressions: E<i>, D2_<i>, Id, integers, + - * and parens


_TOKEN = re.compile(r"E\d+|D2_?\d+|Id|\d+|[()+*-]|\S")
_MAX_NESTING = 100  # keeps the recursive descent well inside the interpreter's stack


class _ExprParser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.toks = [(m.group(0), m.start()) for m in _TOKEN.finditer(text)]
        self.pos = 0
        self.depth = 0

    def _peek(self) -> Optional[str]:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def _take(self) -> tuple[str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> WebCombo:
        combo = self._sum()
        if self.pos < len(self.toks):
            tok, at = self.toks[self.pos]
            raise WebError(f"unexpected {quoted(tok)} at column {at + 1} of {quoted(self.text)}")
        return combo

    def _sum(self) -> WebCombo:
        acc = self._product()
        while self._peek() in ("+", "-"):
            op, _ = self._take()
            rhs = self._product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _product(self) -> WebCombo:
        acc = self._factor()
        while self._peek() == "*":
            self._take()
            acc = acc * self._factor()
        return acc

    def _factor(self) -> WebCombo:
        negate = False
        while self._peek() in ("+", "-"):
            negate ^= self._take()[0] == "-"
        atom = self._atom()
        return -atom if negate else atom

    def _atom(self) -> WebCombo:
        if self.pos >= len(self.toks):
            raise WebError(f"expression ends early: {quoted(self.text)}")
        tok, at = self._take()
        if tok == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise WebError(f"parentheses nest deeper than {_MAX_NESTING} at column {at + 1}")
            inner = self._sum()
            if self._peek() != ")":
                raise WebError(f"missing ')' at column {at + 1} of {quoted(self.text)}")
            self._take()
            self.depth -= 1
            return inner
        if tok == "Id":
            return WebCombo.unit(self.n)
        if tok.startswith("E") and tok[1:].isdecimal():
            return generator_combo(self.n, _number(tok[1:], at))
        if tok.startswith("D2"):
            return second_generator_combo(self.n, _number(tok[2:].lstrip("_"), at))
        if tok.isdecimal():
            return WebCombo.unit(self.n).scale(_number(tok, at))
        raise WebError(f"unexpected {quoted(tok)} at column {at + 1} of {quoted(self.text)}")


def _number(text: str, at: Optional[int] = None) -> int:
    """An integer of the input, refused past MAX_RATIONAL_CHARS digits
    (see exactmath.parse_int)."""
    try:
        return parse_int(text)
    except OverflowError as exc:
        where = "" if at is None else f" at column {at + 1}"
        raise WebError(f"{exc}{where}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_reduce(args) -> int:
    _check_bound("reduce", args.n, "reduction is")
    combo = reduce_combo(_ExprParser(args.expr, args.n).parse())
    _emit(_by_web(combo.terms(), LaurentPoly.to_json_obj if args.q else lambda c: exact_str(eval_q1(c))))
    return 0


def cmd_labelings(args) -> int:
    w = Web.from_code(_parse_ints(args.web))
    out: dict = {"web": _webkey(w.code), "n": w.n}
    if args.boundary is not None:
        g = word_from_text(args.boundary)
        out["boundary"] = word_to_text(g)
        if args.q:
            out["qsize"] = weighted_count(w, g).to_json_obj()
        else:
            out["count"] = len(enumerate_labelings(w, g))
    else:
        table = sorted((boundary_profile(w) if args.q else word_counts(w)).items())
        out["boundaries"] = {word_to_text(g): c.to_json_obj() if args.q else c for g, c in table}
    _emit(out)
    return 0


def cmd_immanants(args) -> int:
    if args.table:
        _check_bound("immanants", args.n, "full coefficient tables are")
        _emit(immanant_table(args.n).to_json_obj())
        return 0
    if args.matrix is None:
        raise WebError("need --matrix FILE or --table")
    X = ExactMatrix.from_json_obj(_load_json(args.matrix))
    if X.n != args.n:
        raise WebError(f"matrix is {X.n}x{X.n} but --n is {quoted(args.n)}")
    _check_bound("immanants", args.n, "immanant evaluation is")
    _emit(_by_web(((D, evaluate_immanant(D, X)) for D in irreducible_webs(args.n)), exact_str))
    return 0


def cmd_decompose(args) -> int:
    g = triple_word(
        [_parse_ints(args.I1), _parse_ints(args.I2), _parse_ints(args.I3)],
        [_parse_ints(args.J1), _parse_ints(args.J2), _parse_ints(args.J3)],
    )
    if len(g) != 2 * args.n:
        raise WebError(f"blocks cover 1..{len(g) // 2} but --n is {quoted(args.n)}")
    _emit(_by_web(decompose_triple(g).items(), int))
    return 0


def cmd_bridge(args) -> int:
    w = _parse_perm(args.w)
    exp = bridge_expansion(args.n, w, _parse_ints(args.I3), _parse_ints(args.J3))
    _emit(
        {
            "w": list(w),
            "matching": matching_of_perm(w).to_json_obj(),
            "coefficients": _by_web(exp.items(), int),
        }
    )
    return 0


def cmd_network(args) -> int:
    net = PlanarNetwork.from_json_obj(_load_json(args.file))
    if args.matrix:
        _emit(path_matrix(net).to_json_obj())
        return 0
    # one given network costs what its immanant table costs; the lower
    # "networks" bound caps the suite, which samples random networks
    _check_bound("immanants", net.n, "network immanants are")
    if args.immanants:
        _emit(_by_web(network_immanants(net).items(), exact_str))
        return 0
    report = corollary_check(net)
    _emit(report)
    return 0 if report["passed"] else 1


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_number)
    except ValueError as exc:  # bad JSON or UTF-8, or an overlong integer
        raise WebError(f"{quoted(path)}: {exc}") from exc
    except RecursionError as exc:
        raise WebError(f"{quoted(path)}: JSON nested too deeply") from exc
    except OSError as exc:  # its str() names the path a second time
        raise WebError(f"cannot read {quoted(path)}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Verification suites


def _suite_relations(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    failed = []
    count = 0
    for k in range(2, n + 1):
        for name, ok in relation_suite(k):
            count += 1
            if not ok:
                failed.append({"n": k, "relation": name})
    return not failed, {"relations": count, "failed": failed}


def _suite_confluence(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    """Every rewrite order of each drawn product gives its reduction
    (all_orders_agree), and each drawn permutation's reduced words give
    one theta image."""
    products = samples or 20
    words = []
    for _ in range(products):
        nn = rng.randint(2, n)
        words.append((nn, [rng.randrange(1, nn) for _ in range(rng.randint(1, 8))]))
    perms = []
    for _ in range(max(3, products // 4)):
        nn = rng.randint(2, n)
        perms.append(tuple(rng.sample(range(1, nn + 1), nn)))
    bad = [{"n": nn, "word": word} for nn, word in words if not all_orders_agree(product_web(nn, word))]
    for w in perms:
        if len({theta_image(w, word) for word in all_reduced_words(w)}) != 1:
            bad.append({"theta_of": list(w)})
    return not bad, {"products": products, "theta_perms": len(perms), "failed": bad}


def _suite_dimensions(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    rows = []
    ok = True
    for k in range(1, n + 1):
        a = len(irreducible_webs(k))
        b = count_avoiding(k, (4, 3, 2, 1))
        c = kostka_three_column(k)
        rows.append({"n": k, "webs": a, "avoiding": b, "tableaux": c})
        ok = ok and a == b == c
    return ok, {"rows": rows}


def _suite_kappa(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    """Weighted labeling counts are multiplicative on random product
    pairs of at most 3 strands, and their values at q = 1, the plain
    counts that rank_check tabulates, have full column rank at n.  The
    rank and the web count are rank_check(n)'s, so the suite fails
    where its least-word certificate falls short (up to n = 6 it is
    full)."""
    pairs = samples or 15
    nn = min(n, 3)
    bad = []
    for _ in range(pairs):
        k = rng.randint(2, nn)
        u = tuple(rng.randrange(1, k) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randrange(1, k) for _ in range(rng.randint(1, 3)))
        lhs = boundary_profile(product_web(k, u + v))
        rhs = profile_product(boundary_profile(product_web(k, u)), boundary_profile(product_web(k, v)))
        if lhs != rhs:
            bad.append({"n": k, "left": list(u), "right": list(v)})
    report = rank_check(n)
    r, webs = report["rank"], report["webs"]
    if not report["passed"]:
        bad.append({"rank": r, "webs": webs})
    return not bad, {"pairs": pairs, "pairs_max_n": nn, "rank": r, "webs": webs, "failed": bad}


def _suite_ci(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    webs = samples or 8
    bad = []
    checked = 0
    for _ in range(webs):
        nn = rng.randint(2, n)
        word = [rng.randrange(1, nn) for _ in range(rng.randint(2, 6))]
        w = product_web(nn, word)
        for child, coeff in reduce_web(w).terms():
            g = boundary_restriction(child, min(enumerate_labelings(child)))
            checked += 1
            if coefficient_via_labelings(w, child, g) != coeff:
                bad.append({"n": nn, "word": word, "child": list(child.code)})
    return not bad, {"webs": webs, "coefficients": checked, "failed": bad}


def _suite_minors(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    mats = samples or 3
    if n <= 3:
        triples = all_triples(n)
    else:
        triples = [random_triple(n, rng) for _ in range(50)]
        triples.append((1,) * (2 * n))  # the determinant
    bad = []
    for _ in range(mats):
        X = random_rational_matrix(n, rng)
        cache: dict = {}
        for g in triples:
            if not check_triple(g, X, cache):
                rows, cols = triple_blocks(g)
                bad.append({"rows": [list(b) for b in rows], "cols": [list(b) for b in cols]})
    return not bad, {"matrices": mats, "triples": len(triples), "sampled": n > 3, "failed": bad}


def _suite_bridge(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    mats = [random_rational_matrix(n, rng) for _ in range(samples or 2)]
    bad = []
    pair_checks = 0
    everyone = tuple(range(1, n + 1))
    for k in range(n + 1):
        for rows1 in itertools.combinations(everyone, k):
            for cols1 in itertools.combinations(everyone, k):
                rows2 = tuple(p for p in everyone if p not in rows1)
                cols2 = tuple(p for p in everyone if p not in cols1)
                exp = pair_expansion(n, rows1, cols1)
                for X in mats:
                    lhs = minor(X, rows1, cols1) * minor(X, rows2, cols2)
                    rhs = sum(tl_immanant(w, X) for w in exp)
                    pair_checks += 1
                    if lhs != rhs:
                        bad.append({"pair": [list(rows1), list(cols1)]})
    bridge_checks = 0
    for s in range(1, n):
        perms = avoiding_321(n - s)
        for rows3 in itertools.combinations(everyone, s):
            for cols3 in itertools.combinations(everyone, s):
                keep_r = [p - 1 for p in everyone if p not in rows3]
                keep_c = [p - 1 for p in everyone if p not in cols3]
                for w in perms:
                    exp = bridge_expansion(n, w, rows3, cols3)
                    for X in mats:
                        lhs = tl_immanant(w, X.submatrix(keep_r, keep_c))
                        lhs *= minor(X, rows3, cols3)
                        rhs = sum(c * evaluate_immanant(D, X) for D, c in exp.items())
                        bridge_checks += 1
                        if lhs != rhs:
                            bad.append(
                                {"w": list(w), "rows3": list(rows3), "cols3": list(cols3)}
                            )
    return not bad, {
        "pair_checks": pair_checks,
        "bridge_checks": bridge_checks,
        "failed": bad,
    }


def _suite_networks(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    nets_per_size = samples or 4
    bad = []
    nets_checked = 0
    for k in range(1, n + 1):
        for _ in range(nets_per_size):
            net = random_planar_network(k, rng, steps=rng.randint(2, 4))
            nets_checked += 1
            if not lindstrom_check(net)["passed"]:
                bad.append({"n": k, "check": "lindstrom"})
            if not corollary_check(net)["passed"]:
                bad.append({"n": k, "check": "corollary"})
    if not corollary_check(identity_network(n))["passed"]:
        bad.append({"n": n, "check": "identity"})
    triple_checks = 0
    if n >= 3:
        net = random_planar_network(3, rng, steps=3)
        X = path_matrix(net)
        values = {D.code: v for D, v in network_immanants(net).items()}
        for g in all_triples(3):
            triple_checks += 1
            if not check_triple(g, X, values):
                bad.append({"n": 3, "check": "triple-minor"})
    return not bad, {"networks": nets_checked, "triple_checks": triple_checks, "failed": bad}


def _suite_tnn(n: int, samples: Optional[int], rng: random.Random) -> tuple[bool, dict]:
    count = samples or 25
    sizes = list(range(3, n + 1)) or [n]
    rows = []
    ok = True
    for k in sizes:
        rep = tnn_check(k, samples=count, seed=rng.randrange(1 << 30))
        rows.append(
            {
                "n": k,
                "samples": rep["samples"],
                "min_value": rep["min_value"],
                "violations": len(rep["violations"]),
            }
        )
        ok = ok and rep["passed"]
    return ok, {"rows": rows}


_SUITE_FNS = {
    "relations": _suite_relations,
    "confluence": _suite_confluence,
    "dimensions": _suite_dimensions,
    "kappa": _suite_kappa,
    "ci": _suite_ci,
    "minors": _suite_minors,
    "bridge": _suite_bridge,
    "networks": _suite_networks,
    "tnn": _suite_tnn,
}
SUITES = (*_SUITE_FNS, "all")


def _run_named(task: tuple[str, int, Optional[int], int]) -> dict:
    name, n, samples, seed = task
    rng = random.Random(seed)
    t0 = time.perf_counter()
    try:
        passed, details = _SUITE_FNS[name](n, samples, rng)
    except RuntimeError as exc:  # a failed invariant fails the check; a WebError is bad input
        passed, details = False, {"error": str(exc)}
    return {
        "name": name,
        "n": n,
        "passed": passed,
        "seconds": round(time.perf_counter() - t0, 3),
        "details": details,
    }


def run_suite(suite: str, n: int, samples: Optional[int] = None, seed: int = 0) -> dict:
    """Execute one named suite (or all of them, one after another) and
    assemble a report.

    Single suites refuse strand counts beyond their documented bound;
    the combined run clamps each suite to its own bound instead.  The
    seed fixes every random choice, so reports are identical across
    runs except for the timing fields.
    """
    if suite not in SUITES:
        raise WebError(f"unknown suite {quoted(suite)}; pick from {', '.join(SUITES)}")
    if n < 2 and suite != "dimensions":
        raise WebError(f"suites need n >= 2, got {quoted(n)}")
    if n < 1:
        raise WebError(f"need n >= 1, got {quoted(n)}")
    if samples is not None and samples < 1:
        raise WebError(f"need samples >= 1, got {quoted(samples)}")
    if suite == "all":
        tasks = [
            (name, min(n, STRAND_BOUNDS[name]), samples, seed * 1009 + i)
            for i, name in enumerate(_SUITE_FNS)
        ]
    else:
        cap = STRAND_BOUNDS[suite]
        if n > cap:
            raise WebError(
                f"suite {suite!r} is documented up to n={cap}, got n={n}; "
                "larger strand counts are out of the exhaustive range"
            )
        tasks = [(suite, n, samples, seed)]
    checks = [_run_named(t) for t in tasks]
    return {
        "suite": suite,
        "n": n,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.n, args.samples, args.seed)
    _emit(report)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the package's refusal: exit 2 and one `error:` line,
    no usage.  The message can hold the user's text, so past twice
    MAX_QUOTED_CHARS it is cut and followed by its length, as
    exactmath.quoted cuts a quoted value.  Subparsers are made of this
    class too."""

    def error(self, message: str):
        cap = 2 * MAX_QUOTED_CHARS
        if len(message) > cap:
            message = f"{message[:cap]}... ({len(message):,} characters)"
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="a2webs",
        description="Exact web calculus: reduction, labelings, immanants, networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite a product expression into the basis")
    p.add_argument("expr", help="e.g. 'E1*E2*E1' or '(E1-1)*(E2-1)'")
    p.add_argument("--n", required=True, help="strand count")
    p.add_argument("--q", action="store_true", help="emit Laurent coefficients")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("labelings", help="count consistent labelings of a web")
    p.add_argument("--web", required=True, help="web code, comma-separated integers")
    p.add_argument("--boundary", help="boundary word like 1,2,3:1,2,3")
    p.add_argument("--q", action="store_true", help="emit weighted sizes")
    p.set_defaults(fn=cmd_labelings)

    p = sub.add_parser("immanants", help="evaluate web immanants of a matrix")
    p.add_argument("--n", required=True)
    p.add_argument("--matrix", help="JSON matrix file")
    p.add_argument("--table", action="store_true", help="dump the coefficient table")
    p.set_defaults(fn=cmd_immanants)

    p = sub.add_parser("decompose", help="expand a product of three complementary minors")
    p.add_argument("--n", required=True)
    for blk in ("I1", "J1", "I2", "J2", "I3", "J3"):
        p.add_argument(f"--{blk}", default="", help=f"block {blk}, e.g. 1,4")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("bridge", help="expand a two-label immanant times a minor")
    p.add_argument("--n", required=True)
    p.add_argument("--w", required=True, help="permutation, digits like 231")
    p.add_argument("--I3", default="", help="deleted rows")
    p.add_argument("--J3", default="", help="deleted columns")
    p.set_defaults(fn=cmd_bridge)

    p = sub.add_parser("network", help="work on a weighted planar network file")
    p.add_argument("--file", required=True, help="network JSON file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--immanants", action="store_true", help="immanants from the network")
    g.add_argument("--matrix", action="store_true", help="print the path matrix")
    g.add_argument("--check-corollary", dest="check_corollary", action="store_true",
                   help="compare network against matrix immanants")
    p.set_defaults(fn=cmd_network)

    p = sub.add_parser("verify", help="run identity suites; exit 0 iff all pass")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--n", default=3)
    p.add_argument("--samples", default=None, help="per-check sample count")
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_verify)
    return ap


def _silence_stdout() -> None:
    # Point the closed stdout at devnull, so that the interpreter's
    # final flush of the unwritten buffer cannot fail a second time.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _read_int_options(args) -> None:
    """Read --n, --samples and --seed, which argparse hands over as
    text, through exactmath.parse_int: a bad or overlong value ends in
    one error line, like any other bad integer of the input."""
    for name in ("n", "samples", "seed"):
        text = getattr(args, name, None)
        if isinstance(text, str):
            try:
                setattr(args, name, parse_int(text))
            except (OverflowError, ValueError) as exc:
                raise WebError(f"--{name}: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _read_int_options(args)
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except WebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        _silence_stdout()
        return 141


if __name__ == "__main__":
    sys.exit(main())
