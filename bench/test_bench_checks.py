"""Each benchmark check passes on a good artifact and fails on a corrupted one.

Artifacts come either from the CLI run in-process on a cheap input or
are written from closed forms; then one psi row, one g node or one lap
count is changed and the operation's own check must reject it.
"""

import contextlib
import io
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import bench_checks as bc  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_checks import CheckFailure  # noqa: E402


def ops_of(workload, tmp_path, seed=0):
    return {op.name: op for op in bw.make(workload, tmp_path, seed)}


def run_cli(op):
    from slopeforge import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv)
    return buf.getvalue(), code


def edit_line(path, index, edit):
    lines = Path(path).read_text().splitlines()
    lines[index] = edit(lines[index])
    Path(path).write_text("\n".join(lines) + "\n")


def bump_column(col, delta):
    def edit(line):
        cols = line.replace("\t", " ").split()
        cols[col] = repr(float(cols[col]) + delta)
        sep = "\t" if "\t" in line else " "
        return sep.join(cols)
    return edit


def assert_fails(op, out, code=0):
    with pytest.raises(CheckFailure):
        op.check(out, code)


def test_normalize_and_verify_checks(tmp_path):
    ops = ops_of("markov-exact", tmp_path)
    norm, ver = ops["normalize skew"], ops["verify skew"]
    out, code = run_cli(norm)
    norm.check(out, code)
    vout, vcode = run_cli(ver)
    ver.check(vout, vcode)
    assert_fails(ver, vout.replace("residual=", "residual=1"), vcode)
    assert_fails(norm, out.replace("conjugacy=true", "conjugacy=false"), code)
    psi = tmp_path / "psi_skew.tsv"
    good = psi.read_text()
    edit_line(psi, 1000, bump_column(1, 1e-7))      # one psi row
    assert_fails(norm, out, code)
    psi.write_text(good)
    edit_line(tmp_path / "g_skew.pwa", 4, bump_column(0, 1e-7))   # one g node
    assert_fails(norm, out, code)


def test_known_fault_excuses_only_the_conjugacy_flag(tmp_path):
    import run as bench_run

    ops = ops_of("markov-exact", tmp_path)
    norm = ops["normalize collapsing_circle"]
    run_cli(ops["flatten collapsing_circle"])
    out, code = run_cli(norm)
    out = out.replace("conjugacy=false", "conjugacy=true")   # the known fault

    def tagged(stdout, exit_code):
        failures = []
        assert bench_run.check_round([norm], [bench_run.Command(0, 0, 0, exit_code, stdout)],
                                     failures) == 1
        return failures[0]["known_fault"]

    assert tagged(out, code)
    assert not tagged(out, 4)                                   # a failed command
    assert not tagged(out.replace("beta=", "beta=1"), code)     # a wrong beta
    assert not tagged("", code)                                 # no summary at all
    edit_line(tmp_path / "psi_collapsing_circle.tsv", 1000, bump_column(1, 1e-7))
    assert not tagged(out, code)                                # a corrupted psi row


def test_known_psi_value_check(tmp_path):
    ops = ops_of("markov-exact", tmp_path)
    op = ops["normalize golden"]
    out, code = run_cli(op)
    op.check(out, code)
    rows = bc.parse_psi((tmp_path / "psi_golden.tsv").read_text())
    i = [x for x, _ in rows].index(F(1, 2)) + 1
    edit_line(tmp_path / "psi_golden.tsv", i, bump_column(1, 1e-11))
    assert_fails(op, out, code)


def test_phi_check(tmp_path):
    op = ops_of("markov-exact", tmp_path)["phi core_tent32"]
    out, code = run_cli(op)
    op.check(out, code)
    edit_line(tmp_path / "phi_core_tent32" / "g.pwa", 4, bump_column(0, 1e-9))
    assert_fails(op, out, code)


def test_flatten_check(tmp_path):
    op = ops_of("markov-exact", tmp_path)["flatten circle_doubling"]
    out, code = run_cli(op)
    op.check(out, code)
    edit_line(tmp_path / "circle_doubling.pwa", 4, lambda ln: "1/2 1 1/1024")
    assert_fails(op, out, code)


def test_approx_check(tmp_path):
    op = ops_of("approx-schedule", tmp_path)["approx tent_s"]
    out, code = run_cli(op)
    op.check(out, code)
    path = tmp_path / "approx_tent_s.pwa"
    edit_line(path, 4, lambda ln: " ".join(ln.split()[:1] + [str(F(t) + F(1, 64)) for t in ln.split()[1:]]))
    assert_fails(op, out, code)


def test_normalize_approx_check(tmp_path):
    """Closed-form artifacts: the slope-3/2 core tent as g, psi the identity."""
    op = bw.normalize_approx_ops(tmp_path, "tent32", bw.tent_beta(F(3, 2)))[0]
    (tmp_path / "tent32.pwa").write_text(bc.pwa_text(bc.pwa_from_pairs([(0, 0), (F(1, 2), F(3, 4)), (1, 0)])))
    (tmp_path / "g_tent32.pwa").write_text("pwa 1\ndomain 0 1\nnodes 3\n0 - 0.5\n0.333333333333333 1 1\n1 0 -\n")
    (tmp_path / "psi_tent32.tsv").write_text("x\tpsi\tx_exact\n" + "".join(
        f"{k / 8}\t{k / 8}\t{F(k, 8)}\n" for k in range(9)))
    (tmp_path / "trace_tent32.tsv").write_text(
        "i\tbeta_i\tcauchy_gap\tresidual\n2\t1.4\t\t\n4\t1.5\t0.0008\t0.001\n")
    out = "beta=1.5\nconverged=true\nmarkov_exact=false\n"
    op.check(out, 0)
    assert_fails(op, out.replace("beta=1.5", "beta=1.502"))
    assert_fails(op, out, 4)
    edit_line(tmp_path / "psi_tent32.tsv", 5, lambda ln: "0.5\t0.3\t1/2")       # one psi row
    assert_fails(op, out)
    edit_line(tmp_path / "psi_tent32.tsv", 5, lambda ln: "0.5\t0.5\t1/2")
    op.check(out, 0)
    edit_line(tmp_path / "g_tent32.pwa", 4, lambda ln: "0.3334 1 1")             # one g node
    assert_fails(op, out)


def write_entropy(path, counts):
    rows = [f"{n}\t{c}\t{math.log(c) / n}" for n, c in enumerate(counts, start=1)]
    trend = math.log(counts[-1] / counts[-2])
    Path(path).write_text("n\tc_n\testimate\n" + "\n".join(rows) + f"\ntrend\t\t{trend!r}\n")
    return f"h_est={trend!r}\n"


@pytest.mark.parametrize("name,counts,spectral", [
    ("zigzag", [3 ** n for n in range(1, 11)], math.log(3)),
    ("golden", [bc.fibonacci(n + 2) for n in range(1, 21)], math.log(bc.GOLDEN)),
    ("core_tent32", None, None),
    ("bimodal", None, None),
])
def test_lap_count_checks(tmp_path, name, counts, spectral):
    op = ops_of("approx-schedule", tmp_path)[f"entropy {name}"]
    if name == "core_tent32":
        counts = [math.ceil(1.5 ** n) + 1 for n in range(1, 21)]
    if name == "bimodal":
        counts = bc.preimage_lap_counts(bc.parse_pwa((tmp_path / "bimodal.pwa").read_text()), 12)
    path = tmp_path / f"entropy_{name}.tsv"
    out = write_entropy(path, counts)
    if spectral is not None:
        out += f"h_spectral={spectral!r}\n"
    op.check(out, 0)
    bad = list(counts)
    if name == "core_tent32":   # only the trend is constrained: change c_N
        bad[-1] += counts[-1] // 10
    else:
        bad[4] += 1             # one lap count
    assert_fails(op, write_entropy(path, bad) + (f"h_spectral={spectral!r}\n" if spectral else ""))


def test_low_trapezoid_counts(tmp_path):
    op = ops_of("approx-schedule", tmp_path)["entropy low_trapezoid"]
    counts = [4 * n - 1 for n in range(1, 13)]
    out = write_entropy(tmp_path / "entropy_low_trapezoid.tsv", counts) + "h_spectral=0\n"
    op.check(out, 0)
    counts[6] += 1
    assert_fails(op, write_entropy(tmp_path / "entropy_low_trapezoid.tsv", counts) + "h_spectral=0\n")


def test_submultiplicative_check():
    bc.check_submultiplicative([3, 9, 21, 47])
    with pytest.raises(CheckFailure):
        bc.check_submultiplicative([3, 9, 28])
    with pytest.raises(CheckFailure):
        bc.check_submultiplicative([3, 9, 8])


def test_reduce_check(tmp_path):
    op = ops_of("approx-schedule", tmp_path)["reduce flat_trapezoid"]
    out, code = run_cli(op)
    op.check(out, code)
    psi0 = tmp_path / "psi0_flat_trapezoid.pwa"
    good = psi0.read_text()
    edit_line(psi0, 4, lambda ln: "2/5 1/2 127/256")     # one psi0 node
    assert_fails(op, out, code)
    psi0.write_text(good)
    edit_line(tmp_path / "collapse_flat_trapezoid.tsv", 1, lambda ln: "2/5\t7/12")
    assert_fails(op, out, code)


def test_collapse_count_check(tmp_path):
    op = ops_of("approx-schedule", tmp_path)["reduce trapezoid"]
    out, code = run_cli(op)
    op.check(out, code)
    col = tmp_path / "collapse_trapezoid.tsv"
    lines = col.read_text().splitlines()
    col.write_text("\n".join(lines[:-1]) + "\n")      # one collapse interval dropped
    assert_fails(op, out.replace("collapse_count=255", "collapse_count=254"), code)


def test_layer_metrics_match_benchmark_json():
    import json

    import bench_trace

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_trace.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
