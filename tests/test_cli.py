import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from a2webs import clear_caches, cli, labelings
from a2webs.cli import _ExprParser, _parse_ints, _suite_tnn, build_parser, main, run_suite
from a2webs.exactmath import eval_q1, quoted
from a2webs.immanants import ExactMatrix, evaluate_immanant, irreducible_webs
from a2webs.labelings import word_from_text
from a2webs.minors import decompose_triple, triple_word
from a2webs.networks import PlanarNetwork, corollary_check, lindstrom_check, random_planar_network
from a2webs.spider import (
    WebCombo,
    generator_combo,
    product_web,
    reduce_combo,
    reduce_web,
    second_generator_combo,
)
from a2webs.webcore import Web, WebError, identity_web

SEED = 20260816
GEN = ",".join(map(str, product_web(2, [1]).code))  # one generator on 2 strands


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def digits_of(value: int) -> str:
    """str(value) past the interpreter's cap on int/str conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestExpressionParser:
    def parse(self, text, n=3):
        return _ExprParser(text, n).parse()

    def test_single_generator(self):
        assert self.parse("E1") == generator_combo(3, 1)

    def test_product_matches_web_product(self):
        combo = reduce_combo(self.parse("E1*E2*E1"))
        assert combo == reduce_web(product_web(3, (1, 2, 1)))

    def test_second_kind_generator(self):
        assert self.parse("D2_1") == second_generator_combo(3, 1)
        assert self.parse("D21") == second_generator_combo(3, 1)

    def test_identity_and_scalars(self):
        assert self.parse("Id") == WebCombo.unit(3)
        assert self.parse("2") == WebCombo.unit(3).scale(2)

    def test_difference_product(self):
        lhs = reduce_combo(self.parse("(E1-1)*(E2-1)"))
        e1, e2 = generator_combo(3, 1), generator_combo(3, 2)
        one = WebCombo.unit(3)
        assert lhs == reduce_combo((e1 - one) * (e2 - one))
        assert len(lhs.terms()) == 4

    def test_unary_minus_and_sum(self):
        assert self.parse("-E1+E1") == WebCombo.zero(3)

    def test_whitespace_ignored(self):
        assert self.parse(" E1 * E2 ") == self.parse("E1*E2")

    def test_bad_token_reports_column(self):
        with pytest.raises(WebError, match="column 4"):
            self.parse("E1*Q9")

    def test_unclosed_paren(self):
        with pytest.raises(WebError, match="missing '\\)'"):
            self.parse("E1*(E2")

    def test_trailing_garbage(self):
        with pytest.raises(WebError, match="unexpected"):
            self.parse("E1 E2")

    def test_empty_expression(self):
        with pytest.raises(WebError, match="ends early"):
            self.parse("")


class TestRunSuite:
    def test_all_n2_passes_fast(self):
        t0 = time.perf_counter()
        rep = run_suite("all", 2, seed=SEED)
        took = time.perf_counter() - t0
        assert rep["passed"]
        assert took < 1.0
        assert len(rep["checks"]) == 9

    def test_dimensions_n4_reports_23(self):
        rep = run_suite("dimensions", 4, seed=SEED)
        assert rep["passed"]
        rows = rep["checks"][0]["details"]["rows"]
        assert rows[-1] == {"n": 4, "webs": 23, "avoiding": 23, "tableaux": 23}

    def test_tnn_checks_every_size_from_three(self):
        ok, details = _suite_tnn(5, 1, random.Random(SEED))
        assert ok
        assert [row["n"] for row in details["rows"]] == [3, 4, 5]

    def test_relations_n3_passes(self):
        rep = run_suite("relations", 3, seed=SEED)
        assert rep["passed"]
        assert rep["checks"][0]["details"]["relations"] > 0

    def test_every_suite_passes_at_its_cap(self):
        for name, cap in (("kappa", 4), ("ci", 4), ("minors", 4), ("bridge", 3),
                          ("networks", 3), ("tnn", 4), ("dimensions", 6)):
            rep = run_suite(name, cap, seed=SEED, samples=2)
            assert rep["passed"], name

    def test_kappa_names_the_strand_count_of_its_pairs(self):
        for n, drawn in ((2, 2), (3, 3), (4, 3)):
            rep = run_suite("kappa", n, seed=SEED, samples=2)
            assert rep["checks"][0]["details"]["pairs_max_n"] == drawn

    def test_single_suite_refuses_over_cap(self):
        with pytest.raises(WebError, match="documented up to n=3"):
            run_suite("bridge", 4)

    def test_all_clamps_instead_of_refusing(self):
        rep = run_suite("all", 5, seed=SEED, samples=2)
        assert rep["passed"]
        by_name = {c["name"]: c["n"] for c in rep["checks"]}
        assert by_name["dimensions"] == 5
        assert by_name["bridge"] == 3

    def test_unknown_suite(self):
        with pytest.raises(WebError, match="unknown suite"):
            run_suite("nope", 2)

    def test_unknown_suite_is_quoted_by_a_prefix(self):
        with pytest.raises(WebError, match="unknown suite") as exc:
            run_suite("x" * 5000, 3)
        assert "characters)" in str(exc.value) and len(str(exc.value)) < 300

    def test_too_small_n(self):
        with pytest.raises(WebError, match="n >= 2"):
            run_suite("kappa", 1)
        rep = run_suite("dimensions", 1)
        assert rep["passed"]

    def test_same_seed_same_report(self):
        def strip(rep):
            for c in rep["checks"]:
                c.pop("seconds")
            return rep

        a = strip(run_suite("all", 3, seed=7))
        b = strip(run_suite("all", 3, seed=7))
        assert a == b

    def test_confluence_inputs_depend_on_the_seed_alone(self, monkeypatch):
        # the check draws nothing: a verdict that fails every product
        # moves no product and no permutation of the suite, and names
        # each product as failed
        agree, reduced_words = cli.all_orders_agree, cli.all_reduced_words

        def inputs(verdict):
            drawn = []

            def all_orders_agree(w):
                drawn.append(w.code)
                return verdict(w)

            def all_reduced_words(w):
                drawn.append(w)
                return reduced_words(w)

            monkeypatch.setattr(cli, "all_orders_agree", all_orders_agree)
            monkeypatch.setattr(cli, "all_reduced_words", all_reduced_words)
            return drawn, run_suite("confluence", 4, seed=SEED)["checks"][0]

        drawn, check = inputs(agree)
        assert check["passed"] and len(drawn) == 20 + 5
        refused, failing = inputs(lambda w: False)
        assert refused == drawn and not failing["passed"]
        words = [(f["n"], tuple(f["word"])) for f in failing["details"]["failed"]]
        assert [product_web(n, word).code for n, word in words] == drawn[:20]


class TestSubcommands:
    def test_reduce_q1(self, capsys):
        rc, got = run_json(capsys, ["reduce", "E1*E1", "--n", "2"])
        assert rc == 0
        combo = reduce_web(product_web(2, (1, 1)))
        want = {
            ",".join(map(str, D.code)): str(eval_q1(c))
            for D, c in combo.terms()
        }
        assert got == want
        assert list(got.values()) == ["2"]

    def test_reduce_laurent(self, capsys):
        rc, got = run_json(capsys, ["reduce", "E1*E1", "--n", "2", "--q"])
        assert rc == 0
        (coeffs,) = got.values()
        assert coeffs == {"-2": "1", "2": "1"}

    def test_reduce_bad_expression(self, capsys):
        rc = main(["reduce", "E1*", "--n", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_labelings_with_boundary(self, capsys):
        code = ",".join(map(str, product_web(3, (1, 2)).code))
        rc, got = run_json(
            capsys, ["labelings", "--web", code, "--boundary", "1,2,3:1,2,3"]
        )
        assert rc == 0
        assert got["count"] == 1

    def test_labelings_on_a_long_identity_web(self, capsys):
        # 1,500 through-strands pinned one after another: the search
        # does not recurse, so it needs no deeper stack
        code = ",".join(map(str, Web.from_slice(identity_web(1500)).code))
        ones = ",".join(["1"] * 1500)
        rc, got = run_json(capsys, ["labelings", "--web", code, "--boundary", f"{ones}:{ones}"])
        assert rc == 0
        assert got["count"] == 1

    def test_labelings_table_is_sorted(self, capsys):
        code = ",".join(map(str, product_web(2, (1,)).code))
        rc, got = run_json(capsys, ["labelings", "--web", code])
        assert rc == 0
        keys = list(got["boundaries"])
        assert keys == sorted(keys)
        assert sum(got["boundaries"].values()) == 12

    def test_labelings_weighted(self, capsys):
        code = ",".join(map(str, product_web(2, (1,)).code))
        rc, got = run_json(
            capsys, ["labelings", "--web", code, "--boundary", "1,2:1,2", "--q"]
        )
        assert rc == 0
        assert got["qsize"] == {"2": "1"}

    def test_labelings_refuses_malformed_code(self, capsys):
        rc = main(["labelings", "--web", "4,3,4,6,2,4,-2,1,2,-2"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_immanants_table(self, capsys):
        rc, got = run_json(capsys, ["immanants", "--table", "--n", "2"])
        assert rc == 0
        assert got["n"] == 2
        assert len(got["webs"]) == 2

    def test_immanants_of_matrix(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        rows = [["1", "1/2"], ["0", "1"]]
        path.write_text(json.dumps({"n": 2, "rows": rows}))
        rc, got = run_json(capsys, ["immanants", "--n", "2", "--matrix", str(path)])
        assert rc == 0
        assert set(got.values()) == {"1", "0"}

    def test_immanants_reads_decimals_exactly(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "rows": [[0.1]]}')
        rc, got = run_json(capsys, ["immanants", "--n", "1", "--matrix", str(path)])
        assert rc == 0
        assert list(got.values()) == ["1/10"]

    def test_immanants_rejects_boolean_entry(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "rows": [[true]]}')
        assert main(["immanants", "--n", "1", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_immanants_size_mismatch(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["0", "1"]]}))
        assert main(["immanants", "--n", "3", "--matrix", str(path)]) == 2
        assert "2x2" in capsys.readouterr().err

    def test_decompose(self, capsys):
        rc, got = run_json(
            capsys,
            ["decompose", "--n", "4", "--I1", "1,4", "--J1", "1,3",
             "--I2", "2", "--J2", "2", "--I3", "3", "--J3", "4"],
        )
        assert rc == 0
        g = triple_word([(1, 4), (2,), (3,)], [(1, 3), (2,), (4,)])
        want = {
            ",".join(map(str, D.code)): c for D, c in decompose_triple(g).items()
        }
        assert got == want

    def test_bridge(self, capsys):
        rc, got = run_json(
            capsys, ["bridge", "--n", "3", "--w", "12", "--I3", "3", "--J3", "3"]
        )
        assert rc == 0
        assert got["w"] == [1, 2]
        assert got["matching"] == [[0, 2], [1, 3]]
        assert all(c == 1 for c in got["coefficients"].values())

    @pytest.mark.parametrize("w", ["113", "1,1,3"])
    def test_bridge_rejects_non_permutation(self, capsys, w):
        rc = main(["bridge", "--n", "3", "--w", w])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_bridge_refuses_large_n_at_once(self):
        n = 200
        w = ",".join(map(str, range(1, n)))
        cmd = [sys.executable, "-m", "a2webs.cli", "bridge", "--n", str(n),
               "--w", w, "--I3", "1", "--J3", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")

    def test_network_matrix_and_corollary(self, capsys, tmp_path):
        import random

        net = random_planar_network(2, random.Random(3), steps=3)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net.to_json_obj()))
        rc, got = run_json(capsys, ["network", "--file", str(path), "--matrix"])
        assert rc == 0
        assert got["n"] == 2
        rc, got = run_json(capsys, ["network", "--file", str(path), "--immanants"])
        assert rc == 0
        assert len(got) == 2
        rc, got = run_json(
            capsys, ["network", "--file", str(path), "--check-corollary"]
        )
        assert rc == 0
        assert got["passed"]

    def test_network_strand_bound_is_the_immanant_bound(self, capsys, tmp_path):
        from a2webs.networks import identity_network

        path = tmp_path / "net.json"
        bench = Path(__file__).parents[1] / "perfbench" / "networks.jsonl"
        path.write_text(bench.read_text().splitlines()[0])
        rc, got = run_json(capsys, ["network", "--file", str(path), "--check-corollary"])
        assert (rc, got["n"], got["passed"]) == (0, 4, True)
        path.write_text(json.dumps(identity_network(5).to_json_obj()))
        assert main(["network", "--file", str(path), "--immanants"]) == 2
        assert "documented up to n=4" in capsys.readouterr().err

    def test_network_refuses_crossing_edges(self, capsys, tmp_path):
        obj = {
            "n": 2,
            "vertices": [{"id": v, "x": x, "y": y}
                         for v, x, y in (("a", 0, 2), ("b", 0, 1), ("c", 1, 2), ("d", 1, 1))],
            "edges": [{"from": "a", "to": "d", "weight": 1}, {"from": "b", "to": "c", "weight": 1}],
            "sources": ["a", "b"],
            "sinks": ["c", "d"],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(obj))
        rc = main(["network", "--file", str(path), "--check-corollary"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: edges 'a'->'d' and 'b'->'c' cross or overlap in the drawing\n"

    def test_network_with_too_many_paths_is_refused_quickly(self, capsys, tmp_path):
        # one strand through 30 diamonds in series: 2^30 paths
        vertices, edges = [{"id": "v0", "x": 0, "y": 0}], []
        for i in range(1, 31):
            vertices += [{"id": f"{c}{i}", "x": 2 * i - (c != "v"), "y": y}
                         for c, y in (("u", 1), ("d", -1), ("v", 0))]
            edges += [{"from": a, "to": b, "weight": 1}
                      for a, b in ((f"v{i - 1}", f"u{i}"), (f"v{i - 1}", f"d{i}"),
                                   (f"u{i}", f"v{i}"), (f"d{i}", f"v{i}"))]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"n": 1, "vertices": vertices, "edges": edges,
                                    "sources": ["v0"], "sinks": ["v30"]}))
        t0 = time.perf_counter()
        rc = main(["network", "--file", str(path), "--check-corollary"])
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: network has more than") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--matrix", "--immanants", "--check-corollary"])
    def test_network_prints_exact_values_of_any_length(self, capsys, flag):
        # one strand through 6 edges, each weighted 10^999 - 1: 5,994 digits
        path = Path(__file__).parent / "golden" / "heavy_chain_6.json"
        rc, got = run_json(capsys, ["network", "--file", str(path), flag])
        assert rc == 0
        want = digits_of((10**999 - 1) ** 6)
        if flag == "--matrix":
            assert got["rows"] == [[want]]
        elif flag == "--immanants":
            assert list(got.values()) == [want]
        else:
            assert got["passed"] is True
            (imm,) = got["immanants"]
            assert imm["from_network"] == imm["from_matrix"] == want

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no cap on int-to-string conversion")
    def test_library_reports_match_the_cli_under_the_default_cap(self, capsys):
        # called from the library, under the interpreter's default cap of
        # 4,300 digits, both checks write the 5,994-digit values that the
        # CLI prints; at n = 1 the determinant is the one matrix entry
        path = Path(__file__).parent / "golden" / "heavy_chain_6.json"
        _, matrix = run_json(capsys, ["network", "--file", str(path), "--matrix"])
        _, corollary = run_json(capsys, ["network", "--file", str(path), "--check-corollary"])
        net = PlanarNetwork.from_json_obj(json.loads(path.read_text()))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            lindstrom = lindstrom_check(net)
            assert corollary_check(net) == corollary
        finally:
            sys.set_int_max_str_digits(limit)
        [[entry]] = matrix["rows"]
        assert lindstrom["det"] == lindstrom["family_sum"] == entry
        assert len(entry) == 5994 and lindstrom["passed"]

    def test_reduce_prints_exact_values_of_any_length(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        nines = "9" * 1000
        rc, got = run_json(capsys, ["reduce", "--n", "2", "*".join([nines] * 5)])
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        assert rc == 0
        assert list(got.values()) == [digits_of((10**1000 - 1) ** 5)]

    def test_reduce_q_prints_coefficients_of_any_length(self, capsys):
        nines = "9" * 1000
        rc, got = run_json(capsys, ["reduce", "--n", "2", "--q", "*".join([nines] * 5 + ["E1"])])
        assert rc == 0
        assert got == {GEN: {"0": digits_of((10**1000 - 1) ** 5)}}

    def test_immanants_print_values_past_the_default_cap(self, capsys, tmp_path):
        # entries of 400-digit numerators over 499-digit denominators give
        # immanants of more than 4,300 digits in numerator or denominator
        rng = random.Random(SEED)
        rows = [[Fraction(rng.randrange(10**399, 10**400), rng.randrange(10**498, 10**499)) for _ in range(4)]
                for _ in range(4)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 4, "rows": [[f"{x.numerator}/{x.denominator}" for x in r] for r in rows]}))
        rc, got = run_json(capsys, ["immanants", "--n", "4", "--matrix", str(path)])
        assert rc == 0
        X = ExactMatrix.from_rows(rows)
        want = {}
        for D in irreducible_webs(4):
            v = evaluate_immanant(D, X)
            want[",".join(map(str, D.code))] = (
                digits_of(v.numerator) if v.denominator == 1 else f"{digits_of(v.numerator)}/{digits_of(v.denominator)}"
            )
        assert list(got.items()) == list(want.items())
        assert max(len(v) for v in want.values()) > 4300

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no cap on int-to-string conversion")
    def test_a_lowered_cap_bounds_what_is_read(self, capsys):
        # the CLI keeps the user's cap: a number read past it ends in one
        # error line naming it, and a small network prints as under the
        # default cap
        golden = Path(__file__).parent / "golden"
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
        for argv in (["reduce", "--n", "2", "9" * 999],
                     ["network", "--file", str(golden / "heavy_chain_6.json"), "--immanants"]):
            proc = subprocess.run([sys.executable, "-m", "a2webs.cli", *argv],
                                  capture_output=True, text=True, timeout=30, env=env)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
            assert "longer than 640 " in proc.stderr and "cap on int-to-string conversion" in proc.stderr
        argv = ["network", "--file", str(golden / "network_bench_0.json"), "--immanants"]
        proc = subprocess.run([sys.executable, "-m", "a2webs.cli", *argv],
                              capture_output=True, text=True, timeout=30, env=env)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_network_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"bad json')
        assert main(["network", "--file", str(path), "--matrix"]) == 2
        err = capsys.readouterr().err
        assert "broken.json" in err and "line 1" in err

    @pytest.mark.parametrize("n", ["x", 2.7, True])
    def test_network_refuses_non_integer_n(self, capsys, tmp_path, n):
        import random

        obj = random_planar_network(2, random.Random(3), steps=3).to_json_obj()
        obj["n"] = n
        path = tmp_path / "net.json"
        path.write_text(json.dumps(obj))
        rc = main(["network", "--file", str(path), "--matrix"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_verify_refuses_nonpositive_samples(self, capsys, samples):
        rc = main(["verify", "--suite", "minors", "--n", "2", "--samples", samples])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: need samples >= 1, got {samples}\n"

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--suite", "relations", "--n", "2"]) == 0
        capsys.readouterr()
        assert main(["verify", "--suite", "bridge", "--n", "4"]) == 2
        assert "documented up to" in capsys.readouterr().err

    def test_verify_report_shape(self, capsys):
        rc, got = run_json(
            capsys, ["verify", "--suite", "ci", "--n", "2", "--seed", str(SEED)]
        )
        assert rc == 0
        assert got["suite"] == "ci"
        assert got["passed"] is True
        (check,) = got["checks"]
        assert check["details"]["coefficients"] > 0

    def test_parser_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class _ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestExitPaths:
    def test_closed_stdout_ends_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        rc = main(["reduce", "E1*E2*E1", "--n", "3"])
        monkeypatch.undo()
        assert rc == 141
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_real_process(self):
        r, w = os.pipe()
        os.close(r)
        try:
            cmd = [sys.executable, "-m", "a2webs.cli", "reduce", "E1*E2*E1", "--n", "3"]
            proc = subprocess.run(cmd, stdout=w, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(w)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("transport left a child edge unlabeled")

        monkeypatch.setattr("a2webs.cli.cmd_reduce", broken)
        rc = main(["reduce", "E1", "--n", "3"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "error: internal: transport left a child edge unlabeled\n"

    def test_a_suite_that_raises_fails_its_check(self, capsys, monkeypatch):
        # a failed internal invariant in a suite's own work fails that
        # suite's check, its message in the details, and verify prints
        # its report and exits 1; only transport's caller, ci, sees it
        def broken(outcomes, f):
            raise RuntimeError("no outcome of a rewrite step carries the labeling")

        monkeypatch.setattr(labelings, "_transport_step", broken)
        clear_caches()
        try:
            report = run_suite("all", 4)
            failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
            assert failed == {"ci": {"error": "no outcome of a rewrite step carries the labeling"}}
            rc = main(["verify", "--n", "4"])
            out, err = capsys.readouterr()
            assert (rc, err) == (1, "")
            assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == ["ci"]
        finally:
            monkeypatch.undo()
            clear_caches()


def one_error_line(capsys, argv):
    """Run argv and return its one stderr line, checking exit code 2
    and an empty stdout."""
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["immanants", "--n", "2", "--matrix"],
        ["network", "--matrix", "--file"],
    ])
    def test_non_utf8_file(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        line = one_error_line(capsys, argv + [str(path)])
        assert "bad.json" in line and "utf-8" in line

    @pytest.mark.parametrize("argv", [
        ["immanants", "--n", "2", "--matrix"],
        ["network", "--matrix", "--file"],
    ])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        # json.load recurses once per bracket
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        line = one_error_line(capsys, argv + [str(path)])
        assert line == f"error: {quoted(str(path))}: JSON nested too deeply"

    @pytest.mark.parametrize("argv", [
        ["immanants", "--n", "2", "--matrix"],
        ["network", "--matrix", "--file"],
    ])
    def test_long_paths_are_quoted_once(self, capsys, argv):
        # the OSError's own text would repeat the whole path
        line = one_error_line(capsys, argv + ["x" * 5000])
        assert line.startswith(f"error: cannot read {quoted('x' * 5000)}: ")
        assert len(line) < 300

    @pytest.mark.parametrize("n", ["10001", "10000000"])
    def test_reduce_strands_are_bounded(self, capsys, n):
        start = time.perf_counter()
        line = one_error_line(capsys, ["reduce", "--n", n, "Id"])
        assert line == f"error: reduction is documented up to n=10000, got {n}"
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", ["true", "1.0"])
    def test_matrix_n_must_be_an_integer(self, capsys, tmp_path, n):
        path = tmp_path / "m.json"
        path.write_text('{"n": %s, "rows": [["1"]]}' % n)
        line = one_error_line(capsys, ["immanants", "--n", "1", "--matrix", str(path)])
        assert line == f"error: matrix 'n' must be an integer, got {json.loads(n)!r}"

    def test_network_sources_must_be_a_list(self, capsys, tmp_path):
        import random

        obj = random_planar_network(2, random.Random(3), steps=3).to_json_obj()
        obj["sources"] = "".join(obj["sources"])
        path = tmp_path / "net.json"
        path.write_text(json.dumps(obj))
        line = one_error_line(capsys, ["network", "--file", str(path), "--matrix"])
        assert line == "error: network 'sources' must be a JSON list"

    @pytest.mark.parametrize("argv", [
        ["immanants", "--n", "0", "--table"],
        ["decompose", "--n", "0"],
    ])
    def test_zero_strands(self, capsys, argv):
        assert one_error_line(capsys, argv) == "error: need n >= 1, got 0"

    @pytest.mark.parametrize("digits", [1001, 5000])
    @pytest.mark.parametrize("head", ["", "E", "D2_"], ids=["scalar", "E", "D2_"])
    def test_long_numbers_in_expressions(self, capsys, head, digits):
        expr = "Id+" + head + "1" * digits
        line = one_error_line(capsys, ["reduce", "--n", "2", expr])
        assert line == "error: number longer than 1000 digits at column 4"

    def test_long_integers_in_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "rows": [[%s]]}' % ("9" * 1000))
        rc, got = run_json(capsys, ["immanants", "--n", "1", "--matrix", str(path)])
        assert (rc, list(got.values())) == (0, ["9" * 1000])
        path.write_text('{"n": 1, "rows": [[-%s]]}' % ("9" * 1001))
        line = one_error_line(capsys, ["immanants", "--n", "1", "--matrix", str(path)])
        assert line == f"error: {quoted(str(path))}: number longer than 1000 digits"

    @pytest.mark.parametrize("argv", [
        ["bridge", "--n", "3", "--w", "12", "--I3", "9" * 200_000, "--J3", "1"],
        ["bridge", "--n", "3", "--w", "1,2," + "9" * 1001],
        ["decompose", "--n", "3", "--I1", "1," + "9" * 1001],
        ["labelings", "--web", "9" * 5000],
        ["labelings", "--web", GEN, "--boundary", "1,-" + "9" * 5000 + ":1,2"],
    ], ids=["I3", "w", "I1", "web", "boundary"])
    def test_long_integers_in_lists(self, capsys, argv):
        line = one_error_line(capsys, argv)
        assert line.endswith(": number longer than 1000 digits") and len(line) < 300

    def test_integers_of_1000_digits_are_read(self):
        assert _parse_ints("1,-" + "9" * 1000) == (1, -int("9" * 1000))
        assert word_from_text("1," + "0" * 999 + "3:1,3") == (1, 3, 1, 3)

    @pytest.mark.parametrize("argv, head", [
        (["bridge", "--n", "3", "--w", "12", "--I3", "x" + "9" * 100_000, "--J3", "1"],
         "error: bad integer list 'x999"),
        (["bridge", "--n", "3", "--w", "12", "--I3", "1,x" + "9" * 900, "--J3", "1"],
         "error: bad integer list '1,x999"),
        (["bridge", "--n", "3", "--w", "x" * 5000], "error: bad permutation 'xxx"),
        (["bridge", "--n", "3", "--w", "9" * 5000], "error: '999"),
        (["reduce", "--n", "2", "--", "E1 " + "x" * 5000], "error: unexpected 'x' at column 4 of 'E1 xxx"),
        (["reduce", "--n", "2", "--", "E1 " + "2" * 900], "error: unexpected '222"),
        (["reduce", "--n", "2", "--", "(E1" + " " * 5000], "error: missing ')' at column 1 of '(E1 "),
        (["reduce", "--n", "2", "--", "E1*" + " " * 5000], "error: expression ends early: 'E1* "),
        (["labelings", "--web", GEN, "--boundary", "1" * 5000], "error: boundary '111"),
        (["labelings", "--web", GEN, "--boundary", "x" * 5000 + ":1"], "error: boundary 'xxx"),
    ], ids=["list", "entry", "perm", "not-perm", "token", "long-token", "paren", "early",
            "boundary", "boundary-entry"])
    def test_long_text_is_quoted_by_a_prefix(self, capsys, argv, head):
        line = one_error_line(capsys, argv)
        assert line.startswith(head) and "characters)" in line and len(line) < 300, line

    @pytest.mark.parametrize("argv, tail", [
        (["decompose", "--n", "3", "--I1", ",".join(["1"] * 20_000)], ""),
        (["decompose", "--n", "9" * 999, "--I1", "1", "--J1", "1"], ""),
        (["bridge", "--n", "3", "--w", "12", "--I3", "9" * 999, "--J3", "1"], " out of range 1..3"),
        (["bridge", "--n", "9" * 999, "--w", "1"], ""),
        (["labelings", "--web", GEN, "--boundary", "1," + "9" * 999 + ":1,2"], " out of range"),
        (["labelings", "--web", "1,0,1,6,1,1," + "9" * 999 + ",2,1,0"], " out of range"),
        (["reduce", "--n", "2", "E" + "9" * 999], " out of range for n=2"),
        (["reduce", "--n", "3", "D2_" + "9" * 999], " out of range for n=3"),
        (["reduce", "--n", "9" * 999, "Id"], ""),
        (["verify", "--samples", "-" + "9" * 999], ""),
    ], ids=["repeated-index", "decompose-n", "index", "bridge-n", "label", "edge-number",
            "E", "D2_", "bound", "samples"])
    def test_accepted_numbers_are_quoted_by_a_prefix(self, capsys, argv, tail):
        # each list or number here is read whole, then refused, and the
        # error line quotes only its first characters
        line = one_error_line(capsys, argv)
        assert line.endswith("characters)" + tail) and len(line) < 300, line

    @pytest.mark.parametrize("n, tail", [
        ("x" * 5000, ""),
        (list(range(3000)), ""),
        (int("9" * 999), " but has 1 rows"),
    ], ids=["text", "list", "number"])
    def test_matrix_n_is_quoted_by_a_prefix(self, capsys, tmp_path, n, tail):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": n, "rows": [["1"]]}))
        line = one_error_line(capsys, ["immanants", "--n", "1", "--matrix", str(path)])
        assert line.endswith("characters)" + tail) and len(line) < 300, line

    def test_short_text_is_quoted_whole(self, capsys):
        assert quoted("E1 x") == "'E1 x'"
        assert quoted("x" * 81) == "'" + "x" * 80 + "'... (81 characters)"
        line = one_error_line(capsys, ["bridge", "--n", "3", "--w", "12", "--I3", "1,x", "--J3", "1"])
        assert line == "error: bad integer list '1,x': invalid literal for int() with base 10: 'x'"
        line = one_error_line(capsys, ["reduce", "--n", "2", "--", "E1 x"])
        assert line == "error: unexpected 'x' at column 4 of 'E1 x'"

    @pytest.mark.parametrize("argv, want", [
        (["bridge", "--n", "3", "--w", "²1"], "error: bad permutation '²1': use digits like 231"),
        (["reduce", "--n", "2", "--", "2*³"], "error: unexpected '³' at column 3 of '2*³'"),
        (["reduce", "--n", "2", "--", "E1+²"], "error: unexpected '²' at column 4 of 'E1+²'"),
    ], ids=["perm", "scalar", "scalar-after-generator"])
    def test_superscript_digits(self, capsys, argv, want):
        # str.isdigit accepts superscripts, which int() refuses
        assert one_error_line(capsys, argv) == want

    @pytest.mark.parametrize("expr", ["(" * 101 + "E1" + ")" * 101, "(" * 5000], ids=["101", "5000"])
    def test_deep_parentheses(self, capsys, expr):
        line = one_error_line(capsys, ["reduce", "--n", "2", "--", expr])
        assert line == "error: parentheses nest deeper than 100 at column 101"

    def test_signs_fold(self):
        assert _ExprParser("-" * 5001 + "E1", 3).parse() == -generator_combo(3, 1)
        assert _ExprParser("(" * 100 + "E1" + ")" * 100, 3).parse() == generator_combo(3, 1)


def test_cli_import_starts_no_process_machinery():
    code = ("import sys, a2webs.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
