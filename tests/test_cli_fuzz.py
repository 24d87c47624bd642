"""CLI fuzzing: every malformed argument or input file ends in exit code
2, one `error:` line on stderr, nothing on stdout and no traceback.

Seeded `random` loops stand in for a property-testing library, since
the runtime and CI use only the standard library and pytest.  Each
generator corrupts a well-formed input in a way that cannot leave it
well-formed: truncation, a wrongly typed JSON value, bytes that are not
UTF-8, a junk token, an out-of-range index."""

import json
import random
from fractions import Fraction

from a2webs.cli import main
from a2webs.immanants import ExactMatrix
from a2webs.networks import random_planar_network
from a2webs.spider import product_web

SEED = 20260816

JUNK_TOKENS = ["?", "x", "E", "D2_", "1.5", "@", ")", "**", "Id2", "E-1", "//"]
WRONG_JSON = [True, None, "x", {}, [[]]]


def assert_refused(capsys, argv):
    # an exception escaping main would be a traceback: it fails the test
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (2, ""), (argv, out[:200])
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    return lines[0]


def random_expr(rng, n, depth=0):
    """A well-formed product expression on n strands, as tokens."""
    r = rng.random()
    if depth > 2 or r < 0.4:
        atoms = [f"E{rng.randint(1, n - 1)}", "Id", str(rng.randint(0, 3))]
        if n > 2:
            atoms.append(f"D2_{rng.randint(1, n - 2)}")
        return [rng.choice(atoms)]
    if r < 0.55:
        return ["(", *random_expr(rng, n, depth + 1), ")"]
    if r < 0.65:
        return ["-", *random_expr(rng, n, depth + 1)]
    return [*random_expr(rng, n, depth + 1), rng.choice("+-*"), *random_expr(rng, n, depth + 1)]


def malformed_expr(rng, n):
    toks = random_expr(rng, n)
    kind = rng.randrange(5)
    if kind == 0:
        toks.insert(rng.randint(0, len(toks)), rng.choice(JUNK_TOKENS))
    elif kind == 1:
        toks.append(rng.choice("+-*("))
    elif kind == 2:
        toks.insert(0, "(")
    elif kind == 3:
        toks += ["*", rng.choice([f"E{rng.choice((0, n, n + 5))}", f"D2_{rng.choice((0, n - 1, n + 3))}"])]
    else:
        depth = rng.randint(101, 400)
        toks = ["(" * depth, *toks, ")" * depth]
    return " ".join(toks)


def random_product(rng):
    n = rng.randint(1, 3)
    return product_web(n, [rng.randint(1, n - 1) for _ in range(rng.randint(0, 3))] if n > 1 else [])


def malformed_code(rng):
    code = list(random_product(rng).code)
    kind = rng.randrange(4)
    if kind == 0:
        return ",".join(map(str, code[:rng.randrange(len(code))]))
    if kind == 1:
        return ",".join(map(str, code)) + rng.choice([",", ",,", ",x", ";1", " 1"])
    if kind == 2:
        code[rng.randrange(len(code))] = rng.choice([-1, -7, 10 ** 6])
        return ",".join(map(str, code))
    return rng.choice(["x", "1,,2", "1.5", "-", "0,0,0", "1e3"])


def mistype(rng, obj):
    """obj with one value, one to three levels down, replaced by a value
    of the wrong JSON type."""
    obj = json.loads(json.dumps(obj))
    parent, key, cur = None, None, obj
    for _ in range(rng.randint(1, 3)):
        if isinstance(cur, dict) and cur:
            parent, key = cur, rng.choice(sorted(cur))
        elif isinstance(cur, list) and cur:
            parent, key = cur, rng.randrange(len(cur))
        else:
            break
        cur = parent[key]
    parent[key] = rng.choice(WRONG_JSON)
    return obj


def malformed_file(rng, tmp_path, obj):
    good = json.dumps(obj).encode()
    kind = rng.randrange(3)
    if kind == 0:
        data = good[:rng.randrange(len(good))]
    elif kind == 1:
        at = rng.randrange(len(good))
        data = good[:at] + rng.choice([b"\xff", b"\xfe\xff", b"\xc3"]) + good[at:]
    else:
        data = json.dumps(mistype(rng, obj)).encode()
    path = tmp_path / "input.json"
    path.write_bytes(data)
    return str(path)


def test_reduce_expressions(capsys):
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(2, 4)
        assert_refused(capsys, ["reduce", "--n", str(n), "--", malformed_expr(rng, n)])
    for _ in range(10):
        expr = " ".join(random_expr(rng, 3))
        assert_refused(capsys, ["reduce", "--n", rng.choice(["0", "-1"]), "--", expr])


def test_web_codes(capsys):
    rng = random.Random(SEED + 1)
    for _ in range(150):
        assert_refused(capsys, ["labelings", f"--web={malformed_code(rng)}"])


def test_boundary_words(capsys):
    rng = random.Random(SEED + 2)
    for _ in range(100):
        w = random_product(rng)
        ones = ",".join(["1"] * (w.n + 1))
        word = rng.choice(["1,2", "1,2:1", "4:1", "a:b", "1:1:1", ":", "", "0:0", f"{ones}:{ones}", "1:x"])
        argv = ["labelings", "--web=" + ",".join(map(str, w.code)), f"--boundary={word}"]
        assert_refused(capsys, argv + ["--q"] * rng.randint(0, 1))


def test_index_lists(capsys):
    rng = random.Random(SEED + 3)
    for _ in range(60):
        blocks = {"I1": "1", "J1": "1", "I2": "2", "J2": "2", "I3": "3", "J3": "3"}
        side = rng.choice("IJ")
        key, other = rng.sample([f"{side}1", f"{side}2", f"{side}3"], 2)
        # a junk list, or one block overlapping another on its side
        blocks[key] = rng.choice(["1,,2", "x", "0", "-1", "1.5", "99", "1;2", blocks[other]])
        argv = ["decompose", "--n", "3"]
        for name, text in blocks.items():
            argv.append(f"--{name}={text}")
        assert_refused(capsys, argv)
    for _ in range(40):
        w = rng.choice(["113", "1,1,3", "", "abc", "1234", "0", "4,1,2", "2,x"])
        assert_refused(capsys, ["bridge", "--n", "3", f"--w={w}", "--I3=3", "--J3=3"])
        assert_refused(capsys, ["bridge", "--n", "3", "--w=12", f"--I3={rng.choice(['x', '1,,2'])}"])


def test_matrix_files(capsys, tmp_path):
    rng = random.Random(SEED + 4)
    for _ in range(100):
        n = rng.randint(1, 3)
        X = ExactMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        path = malformed_file(rng, tmp_path, X.to_json_obj())
        assert_refused(capsys, ["immanants", "--n", str(n), "--matrix", path])


def test_oversized_rationals(capsys, tmp_path):
    # a huge decimal exponent or digit string, refused before it is built
    rng = random.Random(SEED + 6)
    path = tmp_path / "input.json"
    for _ in range(20):
        big = rng.choice(["1e1000000000", "-3.5E+99999", "1e-1000001", "7" * 5000, "1/" + "3" * 5000])
        n = rng.randint(1, 3)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = big
        path.write_text(json.dumps({"n": n, "rows": rows}))
        line = assert_refused(capsys, ["immanants", "--n", str(n), "--matrix", str(path)])
        assert "exponent" in line or "characters" in line
        obj = random_planar_network(n, rng, steps=2).to_json_obj()
        item = rng.choice(obj["vertices"] + obj["edges"])
        item[rng.choice([k for k in item if k in ("x", "y", "weight")])] = big
        path.write_text(json.dumps(obj))
        line = assert_refused(capsys, ["network", "--file", str(path), "--check-corollary"])
        assert "exponent" in line or "characters" in line


def test_network_files(capsys, tmp_path):
    rng = random.Random(SEED + 5)
    for _ in range(100):
        net = random_planar_network(rng.randint(1, 3), rng, steps=rng.randint(1, 3))
        path = malformed_file(rng, tmp_path, net.to_json_obj())
        mode = rng.choice(["--matrix", "--immanants", "--check-corollary"])
        assert_refused(capsys, ["network", "--file", path, mode])


def test_integer_options(capsys):
    # an option integer is read under the bound of every other integer
    # of the input: overlong or malformed, it gets one quoted error line
    rng = random.Random(SEED + 7)
    nines = "9" * 5000
    for _ in range(30):
        name = rng.choice(["--n", "--samples", "--seed"])
        value = rng.choice([nines, "-" + nines, "x", "1.5", "3e2", "", "9" * 200 + "x"])
        line = assert_refused(capsys, ["verify", name, value])
        assert line.startswith(f"error: {name}: ") and len(line) < 300
        cmd = rng.choice([["reduce", "E1"], ["immanants", "--table"], ["decompose"], ["bridge", "--w", "1"]])
        line = assert_refused(capsys, [*cmd, "--n", value])
        assert line.startswith("error: --n: ") and len(line) < 300


def test_long_network_values(capsys, tmp_path):
    # a 100,000-character vertex id, or a 20,000-element list in place
    # of a number, is quoted by a prefix in the one error line
    rng = random.Random(SEED + 8)
    path = tmp_path / "input.json"
    long_id, long_list = "v" * 100_000, list(range(20_000))
    for _ in range(30):
        obj = random_planar_network(rng.randint(1, 3), rng, steps=2).to_json_obj()
        vs, es = obj["vertices"], obj["edges"]
        kind = rng.randrange(8)
        if kind == 0:  # a repeated id
            vs += [{**vs[0], "id": long_id}, {**vs[1], "id": long_id}]
        elif kind == 1:  # a shared position
            vs.append({**rng.choice(vs), "id": long_id})
        elif kind == 2:  # an edge from a missing vertex
            es.append({"from": long_id, "to": vs[0]["id"], "weight": "1"})
        elif kind == 3:  # an exit missing from the vertex list
            obj["sinks"][-1] = long_id
        elif kind == 4:  # a vertex on an edge
            e = rng.choice(es)
            where = {v["id"]: (Fraction(v["x"]), Fraction(v["y"])) for v in vs}
            (tx, ty), (hx, hy) = where[e["from"]], where[e["to"]]
            vs.append({"id": long_id, "x": str((tx + hx) / 2), "y": str((ty + hy) / 2)})
        elif kind == 5:  # an edge that runs backwards
            vs.append({"id": long_id, "x": "-1", "y": "0"})
            es.append({"from": vs[0]["id"], "to": long_id, "weight": "1"})
        elif kind == 6:
            rng.choice(es)["weight"] = long_list
        else:
            obj["n"] = long_list
        path.write_text(json.dumps(obj))
        line = assert_refused(capsys, ["network", "--file", str(path), rng.choice(["--matrix", "--check-corollary"])])
        assert len(line) < 300, line[:400]


def test_long_common_denominator(capsys, tmp_path):
    # one strand through 6,000 vertices at x = i + 1/p_i, p_i the i-th
    # prime: the lcm of the x denominators passes MAX_GRID_DIGITS, so
    # the network is refused before any coordinate is scaled by it
    k, sieve, primes = 6000, bytearray([1]) * 60_000, []
    for p in range(2, len(sieve)):
        if sieve[p]:
            primes.append(p)
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    vertices = [{"id": "v0", "x": 0, "y": 0}, {"id": "t", "x": k + 1, "y": 0}]
    vertices += [{"id": f"v{i}", "x": f"{i * p + 1}/{p}", "y": 0} for i, p in enumerate(primes[:k], 1)]
    edges = [{"from": f"v{i}", "to": f"v{i + 1}", "weight": 1} for i in range(k)]
    edges.append({"from": f"v{k}", "to": "t", "weight": 1})
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": 1, "vertices": vertices, "edges": edges, "sources": ["v0"], "sinks": ["t"]}))
    line = assert_refused(capsys, ["network", "--file", str(path), "--matrix"])
    assert line == "error: the x coordinates' common denominator has more than 10,000 digits"
