import hashlib
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from setp import cli, serialize, solvers
from setp.cli import format_order_spec, parse_order_spec
from setp.core import AprioriOrder, SimplifiedInstance
from setp.transforms import TspInstance, default_epsilon, gen_random_original, gen_random_simplified, gen_random_tsp
from setp.transforms import tsp_to_setp


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "setp.cli", *args], capture_output=True, text=True
    )


def with_p(inst, p):
    return SimplifiedInstance(D=inst.D, R=inst.R, p=p)


def gadget(tsp):
    return tsp_to_setp(tsp, default_epsilon(tsp.C))[0]


class TestOrderSpec:
    def test_parse(self):
        assert parse_order_spec("0+,2-,1+", 3) == AprioriOrder((0, 2, 1), (0, 1, 0))

    def test_roundtrip(self):
        order = AprioriOrder((0, 3, 1, 2), (0, 1, 1, 0))
        assert parse_order_spec(format_order_spec(order), 4) == order

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            parse_order_spec("0+,0-", 2)
        with pytest.raises(ValueError):
            parse_order_spec("0*,1+", 2)


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals and 1e308 included
MATRICES = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=FINITE)


@st.composite
def simplified_instances(draw):
    n = draw(st.integers(1, 3))
    return SimplifiedInstance(
        D=draw(st.one_of(arrays(np.float64, (2 * n, 2 * n), elements=FINITE), MATRICES)),
        R=tuple((2 * i, 2 * i + 1) for i in range(n)),
        p=draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0))),
    )


@st.composite
def near_symmetric_matrices(draw):
    """A square matrix whose entries below the diagonal copy their mirrors,
    negate them (a zero then differs only in its sign) or move one ulp."""
    k = draw(st.integers(1, 24))  # many columns, each dropped once its row is written
    A = draw(arrays(np.float64, (k, k), elements=st.one_of(st.just(0.0), FINITE)))
    M = np.where(np.tri(k, k, -1, dtype=bool), A.T, A)
    low = np.tril_indices(k, -1)
    tweak = np.array(draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(low[0]), max_size=len(low[0]))), dtype=int)
    M[low] = np.select([tweak == 1, tweak == 2], [-M[low], np.nextafter(M[low], 0.0)], M[low])
    return M


DOCUMENT_OBJECTS = st.one_of(
    simplified_instances(),
    st.builds(TspInstance, MATRICES),
    st.builds(gen_random_original, st.integers(3, 6), st.integers(6, 9), st.integers(1, 3), st.integers(0, 99)),
    st.dictionaries(st.integers(0, 99), st.integers(0, 99)),
)


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENT_OBJECTS)
    def test_dumps_is_json_dumps_of_document(self, obj):
        doc = serialize.to_document(obj)
        assert serialize.dumps(obj) == json.dumps(doc, indent=1, allow_nan=False, default=np.ndarray.tolist) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(near_symmetric_matrices())
    def test_dumps_of_near_symmetric_matrix_is_json_dumps(self, M):
        obj = TspInstance(M)
        doc = serialize.to_document(obj)
        assert serialize.dumps(obj) == json.dumps(doc, indent=1, allow_nan=False, default=np.ndarray.tolist) + "\n"

    def test_dumps_peak_memory_stays_near_the_text(self):
        # 2.0x here; a writer that keeps every text until the matrix is written reads 2.8x
        inst = gen_random_simplified(200, seed=0)
        serialize.dumps(inst)  # warm-up: first-call allocations are not the writer's
        tracemalloc.start()
        try:
            text = serialize.dumps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dumps_rejects_non_finite_matrix_entry(self, data):
        shape = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4))
        M = data.draw(arrays(np.float64, shape, elements=FINITE))
        M.flat[data.draw(st.integers(0, M.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        obj = data.draw(st.sampled_from([TspInstance(M), SimplifiedInstance(D=M, R=((0, 1),), p=[0.5]),
                                         SimplifiedInstance(D=np.zeros((2, 2)), R=((0, 1),), p=M)]))
        with pytest.raises(ValueError):
            serialize.dumps(obj)

    @pytest.mark.parametrize(
        "x",
        [1e-4, -1e-4, float(np.nextafter(1e-4, 0)), 1e16, -1e16, float(np.nextafter(1e16, 0)), 5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, 2.0**53 + 2,
         default_epsilon(gen_random_tsp(5, seed=1).C)],
    )
    def test_dumps_of_matrix_at_the_switch_points_of_the_text_rule_is_json_dumps(self, x):
        # 0 and magnitudes in [1e-4, 1e16) are written by orjson, the rest by float.__repr__
        obj = TspInstance(np.array([[0.0, x, 0.5], [x, x, x], [0.25, -x, 7.0]]))
        doc = serialize.to_document(obj)
        assert serialize.dumps(obj) == json.dumps(doc, indent=1, allow_nan=False, default=np.ndarray.tolist) + "\n"

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda a: a.astype(">f8"), lambda a: np.asfortranarray(a.astype(">f8"))],
        ids=["fortran", "big-endian", "fortran-big-endian"],
    )
    def test_dumps_is_the_same_for_any_array_layout(self, layout):
        M = np.arange(36.0).reshape(6, 6) / 7  # not symmetric: a column read as a row would show
        M[0, 1], M[4, 2] = 3e-9, -1e20
        p = np.array([0.5, 0.25, 1.0])
        R = ((0, 1), (2, 3), (4, 5))
        assert serialize.dumps(TspInstance(layout(M))) == serialize.dumps(TspInstance(M))
        assert serialize.dumps(SimplifiedInstance(D=layout(M), R=R, p=p)) == serialize.dumps(SimplifiedInstance(D=M, R=R, p=p))
        assert serialize._array_text(layout(M)) == serialize._array_text(M)  # past the instances' own copy

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENT_OBJECTS)
    def test_reader_table_reads_back_what_dumps_writes(self, obj):
        text = serialize.dumps(obj)
        assert serialize.dumps(serialize.from_document(json.loads(text))) == text

    @pytest.mark.parametrize(
        "obj",
        [
            gen_random_simplified(4, seed=1),
            gen_random_original(4, 6, 2, seed=1),
            gen_random_tsp(5, seed=1),
        ],
        ids=["simplified", "original", "tsp"],
    )
    def test_lossless_roundtrip(self, obj, tmp_path):
        path = tmp_path / "inst.json"
        serialize.save(obj, path)
        back = serialize.load(path)
        assert serialize.dumps(back) == serialize.dumps(obj)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(serialize.FormatError):
            serialize.load(path)
        path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(serialize.FormatError):
            serialize.load(path)

    def test_integral_float_id_reads_as_int(self, tmp_path):
        doc = serialize.to_document(gen_random_original(4, 6, 2, seed=1))
        path = tmp_path / "o.json"
        path.write_text(json.dumps(dict(doc, depot=float(doc["depot"]))))
        depot = serialize.load(path).depot
        assert (type(depot), depot) == (int, doc["depot"])

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"map": [1, 2]}, {"map": {"0": 1.5}}, {"map": {"0": True}}, {"map": {"x": 1}}, {},
         {"map": {"1": 0, "01": 1}}, {"map": {"1_0": 0}}],
        ids=["list", "map-list", "fractional-id", "boolean-id", "bad-key", "no-map", "padded-key", "underscore-key"],
    )
    def test_malformed_vertex_map(self, doc, tmp_path):
        if isinstance(doc, dict):
            doc = {"format": "setp/1", "kind": "vertex_map", **doc}
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(doc))
        with pytest.raises(serialize.FormatError):
            serialize.load(path)


class TestValidateCommand:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(3, seed=0), path)
        res = run_cli("validate", str(path))
        assert res.returncode == 0
        assert res.stdout.strip() == "OK"

    def test_invalid_probability(self, tmp_path):
        inst = gen_random_simplified(2, seed=0)
        doc = json.loads(serialize.dumps(inst))
        doc["p"][0] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run_cli("validate", str(path))
        assert res.returncode == 1
        assert "violation=" in res.stdout

    def test_no_required_edges(self, tmp_path):
        path = tmp_path / "empty.json"
        serialize.save(SimplifiedInstance(np.zeros((0, 0)), [], []), path)
        res = run_cli("validate", str(path))
        assert res.returncode == 1
        assert "violation=required edge set is empty" in res.stdout.splitlines()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not a document")
        res = run_cli("validate", str(path))
        assert res.returncode == 2


class TestEvaluateCommand:
    def test_methods_agree_all_p_one(self, tmp_path):
        inst = gen_random_simplified(4, seed=2)
        from setp.core import SimplifiedInstance

        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(4))
        path = tmp_path / "s.json"
        serialize.save(inst, path)
        values = []
        for method in ("closed", "enum", "mc"):
            res = run_cli("evaluate", str(path), "0+,1+,2+,3+", "--method", method)
            assert res.returncode == 0
            line = [l for l in res.stdout.splitlines() if l.startswith("value=")][0]
            values.append(float(line.removeprefix("value=")))
        assert values[0] == values[1]  # exact methods agree bit-for-bit
        assert values[2] == pytest.approx(values[0], rel=1e-12)  # mc: mean rounding only

    def test_bad_order_usage_error(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(3, seed=2), path)
        res = run_cli("evaluate", str(path), "0+,0+,1+")
        assert res.returncode == 2

    def test_mc_byte_identical(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(5, seed=4), path)
        args = ("evaluate", str(path), "0+,1-,2+,3-,4+", "--method", "mc", "--samples", "2000", "--seed", "11")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == 0

    # SHA-256 of `evaluate` stdout. The mc digest was recorded before the
    # scenario evaluators scored position-major scenarios through a step
    # table, which must not change any output; the enum digests after
    # enumeration's final sum became numpy's fixed-order pairwise sum, which
    # does not depend on the BLAS thread count.
    @pytest.mark.parametrize(
        "inst, order, extra, digest",
        [(gen_random_simplified(18, seed=0), [(i, "+") for i in range(18)], ["--method", "enum"],
          "48d76c27141dcf96a358fccbeaccefd0ccbce51abdc01e49c381340d70a82546"),
         (gen_random_simplified(12, seed=1, metric=True), [(5 * i % 12, "-+"[i % 2 == 0]) for i in range(12)],
          ["--method", "enum"], "37885dbd18a8f4d46f745084072501c49ea6424fe17e43091173e0061e01e6fa"),
         (gen_random_simplified(150, seed=2), [(i, "+") for i in range(150)],
          ["--method", "mc", "--samples", "5000", "--seed", "7"],
          "e832f546fe4917f14c43ab5825e05737b0b17c7327d7c4b02c0201dccd760fc8")],
        ids=["enum-random-18", "enum-metric-12", "mc-random-150"],
    )
    def test_scenario_stdout_bytes(self, tmp_path, capsys, inst, order, extra, digest):
        path = tmp_path / "s.json"
        serialize.save(inst, path)
        spec = ",".join("%d%s" % step for step in order)
        assert cli.main(["evaluate", str(path), spec, *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of closed-form `evaluate` stdout, recorded while the kernel still
    # stepped one shift at a time: its blocks of shifts must not change any
    # output. The n=24 row is one block; the n=600 row takes three.
    @pytest.mark.parametrize(
        "n, scrambled, digest",
        [(1, False, "6a75f2ac707350e5c75888649b83912cf50c568ff05f89e5fecdefbab3cd6263"),
         (1, True, "6a75f2ac707350e5c75888649b83912cf50c568ff05f89e5fecdefbab3cd6263"),
         (24, False, "ef5120109f1729dd49f087534f4efec39bca411e78121cfb62b0474a566f22f1"),
         (24, True, "6fcd6e6a50330918dcae6e96e7237d8c2040c06a2870738fc79fee4b6df1ac05"),
         (600, False, "23615b890965e64d1c819940f97f453e431818b5d86f9754ea1f7726d41c00e3"),
         (600, True, "c7100cc0107ca09b1a9c6fe02534c60822f767032578045c1db55ac2bdebcf0d")],
        ids=["1", "1-scrambled", "24", "24-scrambled", "600", "600-scrambled"],
    )
    def test_closed_stdout_bytes(self, tmp_path, capsys, n, scrambled, digest):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(n, seed=n), path)
        seq = np.random.default_rng(n).permutation(n) if scrambled else range(n)
        spec = ",".join("%d%s" % (i, "-+"[i % 2] if scrambled else "+") for i in seq)  # odd edges forward
        assert cli.main(["evaluate", str(path), spec]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_successive_calls_keep_their_own_defaults(self, tmp_path, capsys):
        # one parser serves every main() call of a process; no option may leak
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(4, seed=0), path)
        spec = "0+,1+,2+,3+"
        outs = []
        for extra in (["--method", "mc", "--samples", "5"], [], ["--method", "mc"]):
            assert cli.main(["evaluate", str(path), spec, *extra]) == 0
            outs.append(dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()))
        assert outs[0]["samples"] == "5"
        assert outs[1]["method"] == "closed_form" and "samples" not in outs[1]
        assert outs[2]["samples"] == "100000" and outs[2]["seed"] == "0"
        assert cli.build_parser() is cli.build_parser()


class TestSolveCommand:
    def test_exact_beats_heuristic(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(5, seed=6), path)
        exact = run_cli("solve", "--exact", str(path))
        heur = run_cli("solve", "--heuristic", str(path))
        assert exact.returncode == heur.returncode == 0
        ce = float(exact.stdout.split("cost=")[1].splitlines()[0])
        ch = float(heur.stdout.split("cost=")[1].splitlines()[0])
        assert ch >= ce - 1e-12

    def test_exact_guard_refusal(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(10, seed=6), path)
        res = run_cli("solve", "--exact", str(path))
        assert res.returncode == 1
        assert "guard" in res.stderr

    def test_heuristic_default_budget(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(6, seed=2), path)
        budgets = []
        search = solvers.local_search

        def recorded(inst, init, budget):
            budgets.append(budget)
            return search(inst, init, budget=budget)

        monkeypatch.setattr(solvers, "local_search", recorded)
        outs = []
        for extra in ([], ["--budget", str(cli.HEURISTIC_BUDGET)]):
            assert cli.main(["solve", "--heuristic", *extra, str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert budgets == [1_000_000, 1_000_000] and outs[0] == outs[1]

    # SHA-256 of `solve --heuristic` stdout, recorded before local search
    # screened its moves with deltas: the screen must not change any output.
    @pytest.mark.parametrize(
        "inst, digest",
        [(gen_random_simplified(40, seed=0), "4a6a4cb61083e2aa6212650ac895053d9fc3de545bbcecb6da000cada7fb9751"),
         (gen_random_simplified(24, seed=1, metric=True),
          "99a9c01dcaca3b79b4a8b9ee44cb718929542131ee793873c9696f31c6ffa169")],
        ids=["random-40", "metric-24"],
    )
    def test_heuristic_stdout_bytes(self, tmp_path, capsys, inst, digest):
        path = tmp_path / "s.json"
        serialize.save(inst, path)
        assert cli.main(["solve", "--heuristic", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of `solve --exact` stdout, recorded before brute force screened
    # one sequence of each mirror pair: the halving must not change any output.
    # The gadget's rounded TSP costs give exact ties, and its optimum is a
    # mirror sequence (0, 4, ..., 1), not a screened one. The last two, where
    # every p is 1, were recorded while the screen still solved them: the
    # Held-Karp rows must settle to the same bytes. The gadget of random p
    # (screened in one orientation) and the random D with p from {0, 1/2, 1}
    # were recorded while the screen still added the service and wrap terms
    # to its hop sums: dropping that constant must not change any output. The
    # every-p-is-0 instance was recorded while its identity sequence was still
    # settled over every orientation, not as its one pair in orientation 0.
    @pytest.mark.parametrize(
        "inst, digest",
        [(gen_random_simplified(7, seed=3), "d0800a840c059abc3e4c35b97f81ef5d37ba42624b1b68f530381a00d4b67deb"),
         (gen_random_simplified(9, seed=5, metric=True),
          "62b5b6f938069fd7bae87b40b1ead1ca90b071bc820ba7c01bd8dad585dff99a"),
         (TspInstance(np.round(gen_random_tsp(7, seed=3).C, 1)),
          "0f1bf681b6824b283c4fa54d2050063f8bc1d06e075d1320234b78a4ca6ae086"),
         (gen_random_tsp(8, seed=4), "2ad7dd10ea434ac186eb950ef1ff56fe62d677001cb644db80668c4048e9fed2"),
         (with_p(gen_random_simplified(9, seed=2, metric=True), np.ones(9)),
          "c6288adc5ad6e7c0a2940ca0e72d491a90aa1d7d9fad0a17ffc8771efc43746f"),
         (with_p(gadget(gen_random_tsp(8, seed=4)), np.random.default_rng(4).random(8)),
          "f0713ff24343bebc5446765d2aba57577b0d787648bfc7e22c7dca9b19167962"),
         (with_p(gen_random_simplified(8, seed=5), np.random.default_rng(5).choice([0.0, 0.5, 1.0], 8)),
          "e1a9612fb394c3dae369895e4ca2bfb4a185551576030f709455afa62c7658fa"),
         (with_p(gen_random_simplified(8, seed=6), np.zeros(8)),
          "c6bd7b077bfe2f05ddd6896928045ef5d9047f73f07d102f4aaf2374c192b796")],
        ids=["random-7", "metric-9", "gadget-7", "gadget-8", "metric-9-p1", "gadget-8-random-p", "random-8-half-p",
             "random-8-p0"],
    )
    def test_exact_stdout_bytes(self, tmp_path, capsys, inst, digest):
        path = tmp_path / "s.json"
        serialize.save(inst, path)
        if isinstance(inst, TspInstance):
            assert cli.main(["reduce", str(path), "--from", "tsp", "-o", str(tmp_path / "g.json")]) == 0
            path = tmp_path / "g.json"
            capsys.readouterr()
        assert cli.main(["solve", "--exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_heuristic_reports_stop_and_sweeps(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(8, seed=4), path)
        reports = {}
        for budget in ("3", "1000000"):
            assert cli.main(["solve", "--heuristic", "--budget", budget, str(path)]) == 0
            res = capsys.readouterr()
            err = dict(line.split("=", 1) for line in res.err.splitlines())
            assert set(err) == {"stop", "sweeps", "settles", "wall_time"}
            assert "stop=" not in res.out and "sweeps=" not in res.out and "settles=" not in res.out
            assert 0 <= int(err["settles"]) <= int(err["sweeps"])
            reports[budget] = (err["stop"], int(err["sweeps"]))
        assert reports["3"] == ("budget", 1)
        stop, sweeps = reports["1000000"]
        assert stop == "local_optimum" and sweeps >= 1

    def test_original_auto_simplified(self, tmp_path):
        path = tmp_path / "o.json"
        serialize.save(gen_random_original(4, 5, 2, seed=9), path)
        res = run_cli("solve", "--exact", str(path))
        assert res.returncode == 0
        assert "epsilon=" in res.stdout


class TestReduceCommand:
    def test_tsp_counts(self, tmp_path):
        path = tmp_path / "t.json"
        serialize.save(gen_random_tsp(3, seed=0), path)
        out = tmp_path / "t.simp.json"
        res = run_cli("reduce", str(path), "--from", "tsp", "-o", str(out))
        assert res.returncode == 0
        simp = serialize.load(out)
        assert simp.size == 6 and simp.n == 3
        assert np.all(simp.p == 1.0)
        vmap = serialize.load(str(out) + ".map")
        assert vmap == {x: x // 2 for x in range(6)}

    def test_original_has_depot_edge(self, tmp_path):
        path = tmp_path / "o.json"
        inst = gen_random_original(4, 5, 2, seed=3)
        serialize.save(inst, path)
        out = tmp_path / "o.simp.json"
        res = run_cli("reduce", str(path), "--from", "original", "-o", str(out))
        assert res.returncode == 0
        simp = serialize.load(out)
        assert simp.n == inst.n + 1
        assert simp.p[-1] == 1.0

    # SHA-256 of the .map file `reduce` writes: like the instance files, its
    # bytes are part of the seeded-output contract.
    @pytest.mark.parametrize(
        "source, inst, digest",
        [("tsp", gen_random_tsp(4, seed=2), "42aa2a4eab27fce09b0dcb32264641ec07d1cc757a82eec86a5aafb0f69c5fc7"),
         ("original", gen_random_original(5, 8, 2, seed=1),
          "2c476bd2a226f387d6464a26b313f1e62e5a9d8412830f318cb44ed9deb2a18e")],
        ids=["tsp", "original"],
    )
    def test_map_bytes(self, tmp_path, source, inst, digest):
        path = tmp_path / "in.json"
        serialize.save(inst, path)
        assert cli.main(["reduce", str(path), "--from", source, "-o", str(tmp_path / "out.json")]) == 0
        assert hashlib.sha256((tmp_path / "out.json.map").read_bytes()).hexdigest() == digest

    def test_bad_epsilon(self, tmp_path):
        path = tmp_path / "t.json"
        serialize.save(gen_random_tsp(4, seed=0), path)
        res = run_cli("reduce", str(path), "--from", "tsp", "--epsilon", "-1")
        assert res.returncode == 2


# A value of each mode-specific option that its parser accepts; more than one
# where a usage-error case should try each.
OPTION_VALUES = {"samples": ["5"], "seed": ["1"], "budget": ["3"], "n": ["5"], "metric": [""], "v": ["6", "99"],
                 "e": ["9"], "required": ["0", "2"], "seeds": ["7"], "size": ["4"]}
# (command, mode, option) for each option that another mode of the command reads and `mode` does not.
FOREIGN_OPTIONS = [
    (command, mode, ("--%s %s" % (opt, value)).strip())
    for command, (_, _, modes) in cli.MODES.items() for mode, reads in modes.items()
    for opt in dict.fromkeys(opt for options in modes.values() for opt in options) if opt not in reads
    for value in OPTION_VALUES[opt]
]
# (command, mode, its options given at their defaults), for every mode but the
# slow verify suites; original's --required defaults to max(1, e // 3).
DEFAULT_OPTIONS = [
    (command, mode, " ".join("--%s %s" % (opt, default) for opt, default in reads.items() if type(default) is int))
    for command, (_, _, modes) in cli.MODES.items() for mode, reads in modes.items()
    if command != "verify" or mode in ("bijection", "eulerian-contrast")
] + [("gen", "original", "--v 6 --e 8 --required 2")]


def mode_ids(cases):
    """Test ids; a gen case is named by its kind and option alone."""
    return ["-".join(case[1:] if case[0] == "gen" else case) for case in cases]


def mode_argv(command, mode, path):
    """argv that selects `mode` of `command`, with the positional arguments it needs."""
    positional = {"evaluate": [path, spec(4)], "solve": [path]}.get(command, [])
    return [command, *positional, *(cli.MODES[command][1] % mode).split()]


@pytest.mark.parametrize("command, mode, opt", [
    ("evaluate", "mc", "samples"), ("evaluate", "mc", "seed"), ("solve", "heuristic", "budget"),
    ("gen", "simplified", "n"), ("gen", "tsp", "n"), ("gen", "original", "v"), ("gen", "original", "e"),
])
def test_help_states_the_default_of_the_table(monkeypatch, command, mode, opt):
    # The parser reads each stated default from cli.MODES, so --help follows the table.
    for value in (cli.MODES[command][2][mode][opt], 12345):
        monkeypatch.setitem(cli.MODES[command][2][mode], opt, value)
        sub = cli.build_parser.__wrapped__()._subparsers._group_actions[0].choices[command]  # not the cached parser
        assert "default %d" % value in next(action.help for action in sub._actions if action.dest == opt)
        sub.format_help()  # argparse %-formats help strings only here


def test_help_states_that_e_is_a_minimum():
    # gen_random_original(3, 3, 1, seed=s) draws 4, 4, 3, 3 and 4 edges for s = 0..4
    sub = cli.build_parser()._subparsers._group_actions[0].choices["gen"]
    text = " ".join(sub.format_help().split())
    assert "at least this many edges before depot embedding (original); repairing odd degrees may add more" in text


@pytest.mark.parametrize("command", sorted(cli.MODES))
def test_parser_offers_the_modes_of_the_table(monkeypatch, command):
    # Each command's choices, or solve's flags, are the table's keys, so a mode added to cli.MODES is offered.
    dest, _, modes = cli.MODES[command]
    monkeypatch.setitem(modes, "added", {})
    sub = cli.build_parser.__wrapped__()._subparsers._group_actions[0].choices[command]  # not the cached parser
    offered = [mode for action in sub._actions if action.dest == dest for mode in action.choices or [action.const]]
    assert offered == sorted(modes)


class TestGenCommand:
    def test_byte_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("gen", "--kind", "simplified", "--n", "5", "--seed", "7", "-o", str(a))
        run_cli("gen", "--kind", "simplified", "--n", "5", "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_original_passes_validate(self, tmp_path):
        path = tmp_path / "o.json"
        res = run_cli("gen", "--kind", "original", "--v", "5", "--e", "8", "--seed", "1", "-o", str(path))
        assert res.returncode == 0
        assert run_cli("validate", str(path)).returncode == 0

    def test_tsp_symmetric(self, tmp_path):
        path = tmp_path / "t.json"
        run_cli("gen", "--kind", "tsp", "--n", "6", "--seed", "2", "-o", str(path))
        tsp = serialize.load(path)
        assert np.array_equal(tsp.C, tsp.C.T)
        assert tsp.m == 6

    def test_infeasible_usage_error(self):
        res = run_cli("gen", "--kind", "original", "--v", "2", "--e", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("required", ["0", "-1"])
    def test_required_below_one_is_a_usage_error(self, capsys, required):
        code, out, err = check_contract(capsys, ["gen", "--kind", "original", "--required", required])
        assert (code, out, err) == (2, "", "error=n_required must be in 1..14\n")

    # These two cover every mode of every command in cli.MODES, not gen's kinds alone.
    @pytest.mark.parametrize("command, mode, option", FOREIGN_OPTIONS, ids=mode_ids(FOREIGN_OPTIONS))
    def test_option_of_another_kind_is_a_usage_error(self, capsys, command, mode, option):
        code, out, err = check_contract(capsys, [*mode_argv(command, mode, "in.json"), *option.split()])
        typed = cli.MODES[command][1] % mode
        assert (code, out, err) == (2, "", "error=%s takes no %s\n" % (typed, option.split()[0]))

    @pytest.mark.parametrize("command, mode, given", DEFAULT_OPTIONS, ids=mode_ids(DEFAULT_OPTIONS))
    def test_defaults_when_not_given(self, tmp_path, capsys, command, mode, given):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(BASE["simplified"]))
        argv = mode_argv(command, mode, str(path))
        runs = [check_contract(capsys, argv + extra.split()) for extra in (given, "")]
        # solve reports its own run time on stderr
        explicit, implicit = [(code, out, re.sub("wall_time=.*\n", "", err)) for code, out, err in runs]
        assert explicit[0] == 0 and explicit == implicit


class TestVerifyCommand:
    def test_oracle_small(self):
        res = run_cli("verify", "--suite", "oracle", "--size", "6", "--seeds", "20")
        assert res.returncode == 0
        assert "result=pass" in res.stdout

    def test_reduction_default_size(self):
        res = run_cli("verify", "--suite", "reduction", "--seeds", "2")
        assert res.returncode == 0
        assert "lifted_optimal=2" in res.stdout

    @pytest.mark.parametrize("size", ["2", "10"])
    def test_reduction_size_out_of_range_usage_error(self, size):
        res = run_cli("verify", "--suite", "reduction", "--size", size, "--seeds", "1")
        assert res.returncode == 2
        assert "error=" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("size", ["0", "21"])
    def test_oracle_size_out_of_range_usage_error(self, size):
        # 0 checks nothing; 21 is one past the enumeration guard
        res = run_cli("verify", "--suite", "oracle", "--size", size, "--seeds", "1")
        assert res.returncode == 2
        assert "error=" in res.stderr and "Traceback" not in res.stderr

    def test_bijection_size_past_the_tsp_guard_usage_error(self):
        # each city past the guard multiplies the tours to check by about 10
        res = run_cli("verify", "--suite", "bijection", "--size", "11")
        assert res.returncode == 2
        assert "error=" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "oracle", "--seeds", "0"],
            ["--suite", "reduction", "--seeds", "0"],
            ["--suite", "bijection", "--size", "2"],
            ["--suite", "equivalence", "--size", "3"],
            ["--suite", "eulerian-contrast", "--size", "3"],
            ["--suite", "bijection", "--seeds", "7"],
            ["--suite", "eulerian-contrast", "--seeds", "7"],
        ],
        ids=["oracle-no-seeds", "reduction-no-seeds", "bijection-no-tours", "equivalence-size", "contrast-size",
             "bijection-seeds", "contrast-seeds"],
    )
    def test_nothing_to_check_usage_error(self, argv):
        res = run_cli("verify", *argv)
        assert res.returncode == 2
        assert "result=" not in res.stdout and "Traceback" not in res.stderr

    def test_eulerian_contrast(self):
        res = run_cli("verify", "--suite", "eulerian-contrast")
        assert res.returncode == 0
        assert "cost_spread=" in res.stdout

    # SHA-256 of `verify` stdout, recorded while the original-form evaluators
    # still read whole tours: scoring each induced order directly must not
    # change any output.
    @pytest.mark.parametrize(
        "argv, digest",
        [(["--suite", "equivalence"], "d5a9ee2a2efc8d7380035f0e94d3246eb13c749a12b9ada5fee6d49d3801cf10"),
         (["--suite", "equivalence", "--seeds", "200"],
          "47d093aec8cfb35efe36db0d1d2aa674624aeab5971cb238989d79693bb87319"),
         (["--suite", "eulerian-contrast"], "37190a6bc5f9a338eab3b81cfdeefea72aa7792e2523457fdb397fa8d8c9d944")],
        ids=["equivalence", "equivalence-200", "eulerian-contrast"],
    )
    def test_suite_stdout_bytes(self, capsys, argv, digest):
        assert cli.main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# A valid document of each kind; the n=10 and n=21 ones reach the exact and
# enumeration size guards.
BASE = {
    "simplified": json.loads(serialize.dumps(gen_random_simplified(4, seed=3))),
    "simplified10": json.loads(serialize.dumps(gen_random_simplified(10, seed=4))),
    "simplified21": json.loads(serialize.dumps(gen_random_simplified(21, seed=5))),
    "original": json.loads(serialize.dumps(gen_random_original(5, 8, 2, seed=1))),
    "tsp": json.loads(serialize.dumps(gen_random_tsp(4, seed=2))),
}
# The lists whose entries a token mutation replaces.
LEAVES = {"simplified": ("D", "p", "R"), "original": ("dist", "prob", "required", "edges", "vertices"), "tsp": ("C",)}
TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "null", "-1.5", "1.7", "0", "true"]
COST_LINES = ("value=", "cost=", "order=")


def order_size(doc):
    """Edges in an order of the instance; simplify adds the depot edge to an original."""
    if doc["kind"] == "original":
        return len(doc["required"]) + 1
    return len(doc["R"] if doc["kind"] == "simplified" else doc["C"])


def spec(n):
    return ",".join("%d+" % i for i in range(n))


def with_token(doc, key, index, token):
    """Document text with one numeric leaf set to a raw JSON token; in a
    distance or cost matrix, both mirror entries."""
    doc = json.loads(json.dumps(doc))
    rows = doc[key]
    i = index % len(rows)
    if not isinstance(rows[i], list):
        rows[i] = "@@"
    elif key in ("D", "C"):
        j = index // len(rows) % len(rows)
        rows[i][j] = rows[j][i] = "@@"
    else:
        rows[i][index // len(rows) % len(rows[i])] = "@@"
    return json.dumps(doc).replace('"@@"', token)


def check_contract(capsys, argv):
    """Exit code, stdout and stderr of one in-process CLI run, after checking
    the exit-code contract: 0, 1 or 2, no traceback, a finite cost on
    success and no cost on failure."""
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects usage errors itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    lines = out.splitlines()
    if code:
        assert not [line for line in lines if line.startswith(COST_LINES)], (argv, out)
    values = [float(line.split("=", 1)[1]) for line in lines if line.startswith(("value=", "cost="))]
    assert np.all(np.isfinite(values)), (argv, out)
    return code, out, err


# The base documents each mutation applies to.
MUTATIONS = {
    "valid": sorted(BASE),
    "token": sorted(BASE),
    "shape": sorted(BASE),
    "truncate": sorted(BASE),
    "bytes": sorted(BASE),
    "matching": ["simplified", "simplified10"],
    "required": ["original"],
    "depot": ["original"],
    "empty": ["simplified", "original"],
    "tsp": ["tsp"],
}


# Mutations whose document always parses to an invalid instance.
INVALID = ("empty", "tsp")


@st.composite
def mutated_file(draw):
    """(mutation, base name, file bytes) for a valid or mutated document."""
    how = draw(st.sampled_from(sorted(MUTATIONS)))
    name = draw(st.sampled_from(MUTATIONS[how]))
    doc = json.loads(json.dumps(BASE[name]))
    kind = doc["kind"]
    if how == "token":
        key = draw(st.sampled_from(LEAVES[kind]))
        text = with_token(doc, key, draw(st.integers(0, 500)), draw(st.sampled_from(TOKENS)))
        return how, name, text.encode()
    if how == "matching":
        i = draw(st.integers(0, len(doc["R"]) - 1))
        doc["R"][i][draw(st.integers(0, 1))] = draw(st.integers(-1, len(doc["D"])))
    elif how == "required":
        doc["required"][draw(st.integers(0, len(doc["required"]) - 1))] = draw(st.integers(-2, len(doc["edges"]) + 2))
    elif how == "depot":
        doc["vertices"].append(max(doc["vertices"]) + 1)  # an isolated vertex
        doc["depot"] = draw(st.sampled_from([doc["vertices"][-1], max(doc["vertices"]) + 5, doc["vertices"][0]]))
    elif how == "tsp":  # an asymmetric pair, a negative pair or a nonzero diagonal
        i, j = draw(st.permutations(range(len(doc["C"]))))[:2]
        value, cells = draw(st.sampled_from([(9.0, [(i, j)]), (-0.5, [(i, j), (j, i)]), (0.5, [(i, i)])]))
        for a, b in cells:
            doc["C"][a][b] = value
    elif how == "empty":
        for key in ("R", "p") if kind == "simplified" else ("required", "prob"):
            doc[key] = []
    elif how == "shape":
        key = draw(st.sampled_from(LEAVES[kind][:2]))
        doc[key] = draw(st.sampled_from([[doc[key]], doc[key][0]]))
    data = json.dumps(doc).encode()
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif how == "bytes":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return how, name, data


@st.composite
def command(draw, path, n, out):
    """argv for one subcommand on `path`, with mutated option values."""
    which = draw(st.sampled_from(["validate", "evaluate", "solve", "reduce"]))
    if which == "validate":
        return ["validate", path]
    if which == "evaluate":
        method = draw(st.sampled_from(["closed", "enum", "mc"]))
        argv = ["evaluate", path, spec(n), "--method", method]
        if method == "mc":
            argv += ["--samples", draw(st.sampled_from(["0", "-3", "1", "50"])), "--seed", "7"]
        return argv
    if which == "solve":
        budget = draw(st.sampled_from(["0", "60"]))
        return ["solve", "--exact", path] if draw(st.booleans()) else ["solve", "--heuristic", "--budget", budget, path]
    argv = ["reduce", path, "--from", draw(st.sampled_from(["tsp", "original"])), "-o", out]
    if draw(st.booleans()):
        argv += ["--epsilon", draw(st.sampled_from(["0", "nan", "-1", "inf", "1e-6"]))]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_code_contract(tmp_path, capsys, data):
    """Every run on a mutated file or option exits 0, 1 or 2 without a
    traceback, prints no cost on failure, and an invalid instance prints
    only the violation= lines of validate, which exits 1 on it."""
    how, name, raw = data.draw(mutated_file())
    where = data.draw(st.sampled_from(["file", "file", "file", "file", "directory", "missing"]))
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    if where == "directory":
        path = tmp_path
    elif where == "missing":
        path = tmp_path / "missing.json"
    argv = data.draw(command(str(path), order_size(BASE[name]), str(tmp_path / "out.json")))
    code, out, _ = check_contract(capsys, argv)
    violations = [line for line in out.splitlines() if line.startswith("violation=")]
    if violations or (how in INVALID and where == "file"):
        v_code, v_out, _ = check_contract(capsys, ["validate", str(path)])
        assert v_code == 1 and v_out.startswith("violation="), (how, v_code, v_out)
    if violations:
        assert (code, out.splitlines()) == (1, v_out.splitlines())


def simplified_doc(**changes):
    return dict(BASE["simplified"], **changes)


# One case per input that used to crash or be scored, and one per invariant
# check added with them.
PROBES = [
    # (id, document text or None for a directory, argv with the path as {path}, exit code[, stderr line])
    ("p-above-one", json.dumps(simplified_doc(p=[1.7, 0.5, 0.5, 0.5])), ["evaluate", "{path}", spec(4)], 1),
    ("broken-matching", json.dumps(simplified_doc(R=[[0, 1], [1, 2], [4, 5], [6, 7]])), ["evaluate", "{path}", spec(4)], 1),
    ("infinity-token-validate", with_token(BASE["simplified"], "D", 1, "Infinity"), ["validate", "{path}"], 2),
    ("infinity-token-evaluate", with_token(BASE["simplified"], "D", 1, "Infinity"), ["evaluate", "{path}", spec(4)], 2),
    ("infinity-token-exact", with_token(BASE["simplified"], "D", 1, "Infinity"), ["solve", "--exact", "{path}"], 2),
    ("nan-token-exact", with_token(BASE["simplified"], "D", 1, "NaN"), ["solve", "--exact", "{path}"], 2),
    ("overflow-to-infinity", with_token(BASE["simplified"], "D", 1, "1e999"), ["evaluate", "{path}", spec(4)], 1),
    ("required-id-out-of-range", json.dumps(dict(BASE["original"], required=[0, 99])), ["evaluate", "{path}", spec(3)], 1),
    ("directory", None, ["validate", "{path}"], 2),
    ("non-utf8", '{"format": "setp/1", "kind": "\udcff"}', ["validate", "{path}"], 2),
    ("samples-zero", json.dumps(BASE["simplified"]), ["evaluate", "{path}", spec(4), "--method", "mc", "--samples", "0"], 2),
    ("seed-negative", json.dumps(BASE["simplified"]), ["evaluate", "{path}", spec(4), "--method", "mc", "--seed", "-5"], 2),
    ("samples-without-mc", json.dumps(BASE["simplified"]), ["evaluate", "{path}", spec(4), "--samples", "5"], 2),
    ("seed-with-enum", json.dumps(BASE["simplified"]), ["evaluate", "{path}", spec(4), "--method", "enum", "--seed", "1"],
     2),
    ("budget-zero", json.dumps(BASE["simplified"]), ["solve", "--heuristic", "--budget", "0", "{path}"], 2),
    ("budget-negative", json.dumps(BASE["simplified"]), ["solve", "--heuristic", "--budget", "-3", "{path}"], 2),
    ("budget-with-exact", json.dumps(BASE["simplified"]), ["solve", "--exact", "--budget", "3", "{path}"], 2),
    ("enum-past-guard", json.dumps(BASE["simplified21"]), ["evaluate", "{path}", spec(21), "--method", "enum"], 1),
    ("exact-past-guard", json.dumps(BASE["simplified10"]), ["solve", "--exact", "{path}"], 1),
    ("reduce-epsilon-nan", json.dumps(BASE["tsp"]), ["reduce", "{path}", "--from", "tsp", "--epsilon", "nan"], 2),
    ("deep-nesting", "[" * 100_000, ["validate", "{path}"], 2),
    ("isolated-depot", json.dumps(dict(BASE["original"], vertices=BASE["original"]["vertices"] + [99], depot=99)),
     ["evaluate", "{path}", spec(3)], 1),
    ("infinite-edge-length", with_token(BASE["original"], "dist", 0, "1e999"), ["evaluate", "{path}", spec(3)], 1),
    ("integer-overflow", with_token(BASE["original"], "required", 0, "1e999"), ["validate", "{path}"], 2),
    ("fractional-id", json.dumps(dict(BASE["original"], required=[BASE["original"]["required"][0] + 0.9,
                                                                  BASE["original"]["required"][1]])),
     ["validate", "{path}"], 2),
    ("boolean-id", json.dumps(simplified_doc(R=[[False, True]] + BASE["simplified"]["R"][1:])), ["validate", "{path}"], 2),
    ("bool-p", with_token(BASE["simplified"], "p", 0, "true"), ["evaluate", "{path}", spec(4)], 2),
    ("bool-dist", with_token(BASE["original"], "dist", 0, "false"), ["evaluate", "{path}", spec(3)], 2),
    ("bool-C", with_token(BASE["tsp"], "C", 1, "true"), ["reduce", "{path}", "--from", "tsp"], 2),
    ("tsp-asymmetric", json.dumps(dict(BASE["tsp"], C=[[0, 1, 2], [1, 0, 1], [1, 1, 0]])), ["validate", "{path}"], 1),
    ("tsp-negative", with_token(BASE["tsp"], "C", 1, "-1.5"), ["reduce", "{path}", "--from", "tsp"], 1),
    ("tsp-not-square", json.dumps(dict(BASE["tsp"], C=[[0, 1, 1], [1, 0, 1]])), ["reduce", "{path}", "--from", "tsp"],
     1),
    ("tsp-overflow", with_token(BASE["tsp"], "C", 1, "1e999"), ["reduce", "{path}", "--from", "tsp"], 1),
    ("tsp-ragged", json.dumps(dict(BASE["tsp"], C=[[0, 1, 1], [1, 0], [1, 1, 0]])), ["validate", "{path}"], 2),
    ("order-underscore-index", json.dumps(BASE["simplified21"]),
     ["evaluate", "{path}", spec(21).replace(",10+,", ",1_0+,")], 2),
    ("order-signed-index", json.dumps(BASE["simplified"]), ["evaluate", "{path}", "0+,+1+,2+,3+"], 2),
    ("order-arabic-indic-index", json.dumps(BASE["simplified"]), ["evaluate", "{path}", "\u0660+,1+,2+,3+"], 2),
    # an index that is not ASCII digits is a bad token, not an int() error
    *[("order-index-%s" % name, json.dumps(BASE["simplified"]), ["evaluate", "{path}", "0+,1+,2+," + tok], 2,
       "error=bad order token %r (want e.g. 3+ or 3-)" % tok) for name, tok in [("empty", "+"), ("letter", "a+"),
                                                                                 ("sign", "-+")]],
    ("vertex-map-validate", json.dumps({"format": "setp/1", "kind": "vertex_map", "map": {"0": 0}}),
     ["validate", "{path}"], 2),
    # each request is more than a process can address on a 64-bit host (64 PiB), so it fails at once
    ("mc-samples-past-memory", json.dumps(BASE["simplified"]),
     ["evaluate", "{path}", spec(4), "--method", "mc", "--samples", str(10**17)], 1),
    ("gen-simplified-past-memory", None, ["gen", "--kind", "simplified", "--n", str(10**8)], 2),
    ("gen-tsp-past-memory", None, ["gen", "--kind", "tsp", "--n", str(10**8)], 2),
    # seed 0 draws 4 edges, and the 2 depot edges are never required
    ("gen-original-required-past-edges", None,
     ["gen", "--kind", "original", "--v", "3", "--e", "3", "--required", "5"], 2),
    # the generator's "m must be >= 3", reported as a usage error
    ("gen-tsp-below-three-cities", None, ["gen", "--kind", "tsp", "--n", "2"], 2),
    # a kind that is not a string names no kind, and is not looked up as a key
    *[("kind-%s" % name, json.dumps(dict(BASE["tsp"], kind=kind)), ["validate", "{path}"], 2,
       "error=unknown kind %r" % (kind,)) for name, kind in [("list", []), ("object", {"a": 1}), ("null", None)]],
    # a document without one of its kind's fields
    *[("no-%s-%s" % (kind, field), json.dumps({k: v for k, v in BASE[kind].items() if k != field}),
       ["validate", "{path}"], 2, "error=malformed %s document: '%s'" % (kind, field))
      for kind in ("original", "simplified", "tsp") for field in BASE[kind] if field not in ("format", "kind")],
]


@pytest.mark.parametrize("probe", PROBES, ids=[p[0] for p in PROBES])
def test_cli_rejects_bad_input(tmp_path, capsys, probe):
    _, text, argv, expected, *error = probe
    path = tmp_path
    if text is not None:
        path = tmp_path / "in.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = check_contract(capsys, [a.replace("{path}", str(path)) for a in argv])
    assert code == expected
    assert set(error) <= set(err.splitlines()), err
    assert ("violation=" in out) == (expected == 1 and "guard" not in err and "allocate" not in err)
    if "violation=" in out:  # and no epsilon= or instance= line
        assert all(line.startswith("violation=") for line in out.splitlines())
    assert not list(tmp_path.glob("in.json.*"))  # reduce wrote nothing


def test_cli_import_leaves_scipy_unloaded():
    """scipy's graph routines load only when a shortest path is computed."""
    code = "import sys, setp.cli; print('scipy.sparse.csgraph' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr


def test_gen_original_leaves_scipy_unloaded(tmp_path):
    """The generator pairs odd vertices by bounded searches of its own, not
    through scipy's whole-row Dijkstra."""
    code = "import sys, setp.cli; setp.cli.main(%r); print('scipy.sparse.csgraph' in sys.modules)" % (
        ["gen", "--kind", "original", "--v", "40", "--e", "120", "-o", str(tmp_path / "o.json")],)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout.splitlines()[-1:]) == (0, ["False"]), res.stderr
