import math
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from slopeforge import fixtures
from slopeforge.cli import main
from slopeforge.pwmap import PwaMap, parse_pwa, serialize_pwa, sup_dist


@pytest.fixture
def tent_file(tmp_path):
    p = tmp_path / "tent.pwa"
    p.write_text(serialize_pwa(fixtures.tent()))
    return str(p)


@pytest.fixture
def skew_file(tmp_path):
    p = tmp_path / "skew.pwa"
    p.write_text(serialize_pwa(fixtures.skew_tent(F(5, 12))))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    summary = {}
    for ln in out.splitlines():
        if "=" in ln:
            k, v = ln.split("=", 1)
            summary.setdefault(k, []).append(v)
    return code, summary, out


def test_entropy_tent(capsys, tent_file, tmp_path):
    out_tsv = str(tmp_path / "report.tsv")
    code, summary, _ = run(capsys, ["entropy", tent_file, "--depth", "10",
                                    "--out", out_tsv])
    assert code == 0
    assert abs(float(summary["h_est"][0]) - math.log(2)) < 1e-12
    assert abs(float(summary["h_spectral"][0]) - math.log(2)) < 1e-12
    assert summary["agreed"] == ["true"]
    text = Path(out_tsv).read_text()
    assert text.startswith("n\tc_n\testimate\n")
    assert "1\t2\t" in text


def test_entropy_not_positive(capsys, tmp_path):
    p = tmp_path / "id.pwa"
    p.write_text(serialize_pwa(fixtures.identity_map()))
    code, summary, _ = run(capsys, ["entropy", str(p)])
    assert code == 0
    assert summary["positive"] == ["false"]
    assert "no positive entropy" in summary["note"][0]


ZERO_ENTROPY = {
    "flat_trapezoid": fixtures.flat_trapezoid(),
    "low_trapezoid": fixtures.low_trapezoid(),
    "tent_slope_1": PwaMap.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 0)]),
}


@pytest.mark.parametrize("name", sorted(ZERO_ENTROPY))
def test_zero_entropy_is_not_normalized(capsys, tmp_path, name):
    # each map is Markov with beta = 1, whatever its lap counts do
    p = tmp_path / f"{name}.pwa"
    p.write_text(serialize_pwa(ZERO_ENTROPY[name]))
    for argv in (["normalize", str(p)],
                 ["phi", str(p), "--out-dir", str(tmp_path / "bundle")]):
        code, summary, out = run(capsys, argv)
        assert code == 3, out
        assert out == ("error=precondition "
                       "message='entropy estimate not positive'\n")
    code, summary, _ = run(capsys, ["entropy", str(p)])
    assert code == 0
    assert summary["h_spectral"] == ["0"]
    assert summary["positive"] == ["false"]
    assert "no positive entropy" in summary["note"][0]


def test_entropy_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.pwa"
    p.write_text("pwa 2\n")
    code, summary, _ = run(capsys, ["entropy", str(p)])
    assert code == 2
    assert summary["error"][0].startswith("parse")


def test_normalize_huge_exponent_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "huge.pwa"
    p.write_text("pwa 1\ndomain 0 1\nnodes 2\n0 - 1e-4000000\n1 0 -\n")
    code, summary, out = run(capsys, ["normalize", str(p)])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("parse")


BEYOND_FLOAT64 = str(10**400)


def test_pwa_coordinate_beyond_float64_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "huge.pwa"
    p.write_text(f"pwa 1\ndomain 0 {BEYOND_FLOAT64}\nnodes 2\n0 - 0\n"
                 f"{BEYOND_FLOAT64} {BEYOND_FLOAT64} -\n")
    code, summary, out = run(capsys, ["entropy", str(p)])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("parse")
    assert "beyond the float64 range" in summary["error"][0]


def test_underflowing_coordinates_stay_valid(capsys, tmp_path):
    # 1e-400 shares the float 0.0 with the node 0; the exact scan of
    # locate_leq tells them apart
    p = tmp_path / "tiny.pwa"
    p.write_text("pwa 1\ndomain 0 1\nnodes 4\n0 - 0\n1e-400 2e-400 2e-400\n"
                 "1/2 1 1\n1 0 -\n")
    f = parse_pwa(p.read_text())
    assert float(f.nodes[1].x) == 0.0
    assert f.eval(F(1, 10**400)) == F(2, 10**400)
    assert f.eval(F(1, 10**401)) == F(2, 10**401)
    code, summary, _ = run(capsys, ["entropy", str(p), "--depth", "12"])
    assert code == 0
    tent = tmp_path / "tent.pwa"
    tent.write_text(serialize_pwa(fixtures.tent()))
    _, want, _ = run(capsys, ["entropy", str(tent), "--depth", "12"])
    assert summary == want


def test_markov_check(capsys, tent_file):
    code, summary, _ = run(capsys, ["markov-check", tent_file,
                                    "--points", "0,1/2,1"])
    assert code == 0 and summary["markov"] == ["true"]
    code, summary, _ = run(capsys, ["markov-check", tent_file,
                                    "--points", "0,1/3,1"])
    assert code == 0 and summary["markov"] == ["false"]


def test_left_out_budget_is_the_library_default(capsys, tmp_path):
    from slopeforge.markov import MAX_CLOSURE_POINTS

    p = tmp_path / "t32.pwa"
    p.write_text(serialize_pwa(fixtures.tent_slope(F(3, 2))))
    for extra, budget in (([], MAX_CLOSURE_POINTS), (["--budget", "8"], 8)):
        code, summary, _ = run(capsys, ["markov-check", str(p), *extra])
        assert code == 0 and summary["markov"] == ["false"]
        assert summary["reason"] == [f"closure exceeded {budget} points"]


def test_normalize_skew_writes_bundle(capsys, skew_file, tmp_path):
    g_out = str(tmp_path / "g.pwa")
    psi_out = str(tmp_path / "psi.tsv")
    tr_out = str(tmp_path / "trace.tsv")
    code, summary, _ = run(capsys, ["normalize", skew_file, "--tol", "1e-6",
                                    "--out", g_out, "--psi", psi_out,
                                    "--trace", tr_out])
    assert code == 0
    assert abs(float(summary["beta"][0]) - 2.0) < 1e-12
    assert float(summary["residual"][0]) < 1e-6
    assert summary["conjugacy"] == ["true"]
    g = parse_pwa(Path(g_out).read_text())
    assert sup_dist(g, fixtures.tent()) == 0
    assert Path(psi_out).read_text().startswith("x\tpsi")
    assert Path(tr_out).read_text().startswith("i\tbeta_i")


def test_normalize_identity_precondition(capsys, tmp_path):
    p = tmp_path / "id.pwa"
    p.write_text(serialize_pwa(fixtures.identity_map()))
    code, summary, _ = run(capsys, ["normalize", str(p)])
    assert code == 3
    assert summary["error"][0].startswith("precondition")


def test_bad_precision_env_is_a_precondition(capsys, monkeypatch, tent_file):
    monkeypatch.setenv("SLOPEFORGE_PRECISION", "abc")
    for argv in (["normalize", tent_file], ["entropy", tent_file]):
        code, _, out = run(capsys, argv)
        assert code == 3
        assert len(out.splitlines()) == 1
        assert out.startswith("error=precondition message=")
        assert "SLOPEFORGE_PRECISION" in out


def test_verify_round_trip(capsys, skew_file, tmp_path):
    g_out = str(tmp_path / "g.pwa")
    psi_out = str(tmp_path / "psi.tsv")
    run(capsys, ["normalize", skew_file, "--out", g_out, "--psi", psi_out])
    code, summary, _ = run(capsys, ["verify", skew_file, g_out, psi_out,
                                    "--grid", "10000", "--tol", "1e-9"])
    assert code == 0
    assert float(summary["residual"][0]) < 1e-9


def test_verify_detects_corruption(capsys, skew_file, tmp_path):
    psi_out = str(tmp_path / "psi.tsv")
    run(capsys, ["normalize", skew_file, "--psi", psi_out])
    bad = tmp_path / "bad.pwa"
    bad.write_text(serialize_pwa(
        fixtures.skew_tent(F(5, 12))  # wrong g: not the normal form
    ))
    code, summary, _ = run(capsys, ["verify", skew_file, str(bad), psi_out,
                                    "--grid", "1000", "--tol", "1e-6"])
    assert code == 5
    assert float(summary["residual"][0]) > 0.004


def test_approx_command(capsys, tmp_path):
    p = tmp_path / "t32.pwa"
    p.write_text(serialize_pwa(fixtures.tent_slope(F(3, 2))))
    code, summary, _ = run(capsys, ["approx", str(p), "--index", "8"])
    assert code == 0
    num, den = summary["distance"][0].split("/")
    assert F(int(num), int(den)) < F(1, 8)


def test_reduce_command(capsys, tmp_path):
    p = tmp_path / "trap.pwa"
    p.write_text(serialize_pwa(fixtures.flat_trapezoid()))
    coll = str(tmp_path / "collapse.tsv")
    out = str(tmp_path / "fhat.pwa")
    code, summary, _ = run(capsys, ["reduce", str(p), "--depth", "8",
                                    "--out", out, "--collapse", coll])
    assert code == 0
    assert summary["collapse_count"] == ["1"]
    assert "2/5\t3/5" in Path(coll).read_text()
    fhat = parse_pwa(Path(out).read_text())
    assert not fhat.has_plateau


def test_phi_bundle(capsys, skew_file, tmp_path):
    outdir = tmp_path / "bundle"
    code, summary, _ = run(capsys, ["phi", skew_file,
                                    "--out-dir", str(outdir)])
    assert code == 0
    assert summary["conjugacy"] == ["true"]
    assert summary["evidence"] == ["matrix_primitive"]
    assert (outdir / "g.pwa").exists()
    assert (outdir / "psi.tsv").exists()
    assert "evidence=matrix_primitive" in (outdir / "evidence.txt").read_text()


def test_phi_trapezoid_is_a_semiconjugacy(capsys, tmp_path):
    p = tmp_path / "trap.pwa"
    p.write_text(serialize_pwa(fixtures.trapezoid()))
    outdir = tmp_path / "bundle"
    code, summary, _ = run(capsys, ["phi", str(p), "--out-dir", str(outdir)])
    assert code == 0
    assert summary["beta"] == ["2"]
    assert summary["conjugacy"] == ["false"]
    assert "error" not in summary
    g = parse_pwa((outdir / "g.pwa").read_text())
    assert sup_dist(g, fixtures.tent()) == 0


def test_phi_unconverged_schedule_exits_4(capsys, tmp_path):
    p = tmp_path / "bimodal.pwa"
    p.write_text(serialize_pwa(fixtures.bimodal_nonmarkov()))
    outdir = tmp_path / "bundle"
    code, summary, out = run(capsys, ["phi", str(p), "--out-dir", str(outdir)])
    assert code == 4
    assert summary["error"] == [
        "non-convergence message='cauchy criterion not met by schedule end'"]
    assert out.splitlines()[-1].startswith("error=")
    assert (outdir / "g.pwa").exists()
    assert (outdir / "psi.tsv").exists()
    assert (outdir / "evidence.txt").exists()


def test_phi_rejects_jump_map(capsys, tmp_path):
    p = tmp_path / "dbl.pwa"
    p.write_text(serialize_pwa(fixtures.doubling()))
    code, summary, _ = run(capsys, ["phi", str(p)])
    assert code == 3


def test_flatten_command(capsys, tmp_path):
    p = tmp_path / "circle.txt"
    p.write_text(fixtures.CIRCLE_DOUBLING)
    out = str(tmp_path / "flat.pwa")
    code, summary, _ = run(capsys, ["flatten", str(p), "--out", out])
    assert code == 0
    flat = parse_pwa(Path(out).read_text())
    assert flat == fixtures.doubling()


@pytest.mark.parametrize("command", ["verify", "flatten"])
def test_missing_file_is_a_parse_error(capsys, tent_file, tmp_path, command):
    missing = str(tmp_path / "missing")
    argv = {"verify": ["verify", tent_file, tent_file, missing],
            "flatten": ["flatten", missing]}[command]
    code, summary, out = run(capsys, argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("parse")


def test_normalize_collapsing_circle_is_not_conjugacy(capsys, tmp_path):
    # the flat map is the identity on edge e2 = [1, 2], a cell without
    # Perron mass, so psi is constant there and only semiconjugates
    p = tmp_path / "circle.txt"
    p.write_text(fixtures.COLLAPSING_CIRCLE)
    flat = str(tmp_path / "flat.pwa")
    assert run(capsys, ["flatten", str(p), "--out", flat])[0] == 0
    code, summary, _ = run(capsys, ["normalize", flat])
    assert code == 0
    assert summary["converged"] == ["true"]
    assert summary["conjugacy"] == ["false"]


def test_plot_tent(capsys, tent_file):
    code, _, out = run(capsys, ["plot", tent_file, "--samples", "4"])
    assert code == 0
    rows = [tuple(float(v) for v in ln.split("\t"))
            for ln in out.splitlines() if "\t" in ln]
    assert len(rows) == 5
    assert (0.5, 1.0) in rows


def test_plot_jump_duplicates(capsys, tmp_path):
    p = tmp_path / "dbl.pwa"
    p.write_text(serialize_pwa(fixtures.doubling()))
    code, _, out = run(capsys, ["plot", str(p), "--samples", "4"])
    assert code == 0
    rows = [tuple(float(v) for v in ln.split("\t"))
            for ln in out.splitlines() if "\t" in ln]
    assert rows.count((0.5, 1.0)) == 1 and rows.count((0.5, 0.0)) == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_plot_rejects_samples_below_one(capsys, tent_file, samples):
    code, summary, out = run(capsys, ["plot", tent_file, "--samples", samples])
    assert code == 3
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("precondition")


def test_determinism(capsys, skew_file, tmp_path):
    a1 = tmp_path / "a1.pwa"
    a2 = tmp_path / "a2.pwa"
    run(capsys, ["normalize", skew_file, "--out", str(a1)])
    run(capsys, ["normalize", skew_file, "--out", str(a2)])
    assert a1.read_bytes() == a2.read_bytes()


@pytest.mark.parametrize("old,new", [
    ("0 - 0\n", "0 0\n"),              # a chart node line of 2 tokens
    ("nodes e 2\n", "nodes\n"),        # a bare nodes line
    ("1 2 -\n", "1 2x -\n"),           # a node value that is no rational
    ("1 2 -\n", f"{BEYOND_FLOAT64} 2 -\n"),  # a node x beyond the float range
], ids=["two_tokens", "bare_nodes", "bad_value", "x_beyond_float64"])
def test_flatten_malformed_chart_is_a_parse_error(capsys, tmp_path, old, new):
    p = tmp_path / "circle.txt"
    p.write_text(fixtures.CIRCLE_DOUBLING.replace(old, new))
    code, summary, out = run(capsys, ["flatten", str(p)])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("parse")
    if BEYOND_FLOAT64 in new:
        assert "beyond the float64 range" in summary["error"][0]


# each bad row sits where the rows stay sorted, so only its own check fails it
@pytest.mark.parametrize("rows,message", [
    ("0\t0\t0\n0.5\tabc\t1/2\n1\t1\t1\n", "bad psi TSV row"),
    ("0\t0\t0\n0.5\t0.5\t1/0\n1\t1\t1\n", "bad psi TSV row"),
    ("0\t0\t0\n0.5\tnan\t1/2\n1\t1\t1\n", "outside [0, 1]"),
    (f"0\t0\t0\n1\t1\t1\n2\t1\t{BEYOND_FLOAT64}\n", "beyond the float64 range"),
], ids=["bad_psi", "bad_x_exact", "nan_psi", "x_exact_beyond_float64"])
def test_verify_malformed_psi_row_is_a_parse_error(capsys, tent_file,
                                                   tmp_path, rows, message):
    psi = tmp_path / "psi.tsv"
    psi.write_text(f"x\tpsi\tx_exact\n{rows}")
    code, summary, out = run(capsys, ["verify", tent_file, tent_file, str(psi)])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith("parse")
    assert message in summary["error"][0]


@pytest.mark.parametrize("argv,code,kind", [
    (["normalize", "{f}", "--schedule", "2,a"], 2, "parse"),
    (["markov-check", "{f}", "--points", "0,x,1"], 2, "parse"),
    (["normalize", "{f}", "--grid", "0"], 3, "precondition"),
    (["verify", "{f}", "{f}", "{psi}", "--grid", "0"], 3, "precondition"),
    (["entropy", "{f}", "--depth", "0"], 3, "precondition"),
    (["reduce", "{f}", "--depth", "0"], 3, "precondition"),
    (["entropy", "{f}", "--depth", "1000000"], 4, "non-convergence"),
    (["entropy", "{f}", "--depth", "20000", "--out", "{out}"], 4, "non-convergence"),
    (["approx", "{bimodal}", "--index", "64", "--shadow-depth", "14",
      "--out", "{out}"], 4, "non-convergence"),
    (["reduce", "{trapezoid}"], 4, "non-convergence"),
    (["approx", "{f}", "--index", "800000"], 3, "precondition"),
    (["verify", "{f}", "{f}", "{psi}", "--tol", "nan"], 2, "parse"),
    (["normalize", "{f}", "--tol", "nan"], 2, "parse"),
    (["phi", "{f}", "--tol", "inf"], 2, "parse"),
    (["entropy", "{f}", "--depth", "x"], 2, "parse"),
    (["entropy"], 2, "parse"),
    (["no-such-command", "{f}"], 2, "parse"),
], ids=["schedule", "points", "normalize_grid", "verify_grid",
        "entropy_depth", "reduce_depth", "entropy_depth_budget",
        "entropy_count_bits", "approx_shadow_depth_budget",
        "reduce_default_depth_budget", "approx_index_points", "verify_tol_nan",
        "normalize_tol_nan", "phi_tol_inf", "entropy_depth_type",
        "missing_positional", "unknown_command"])
def test_bad_argument_exit_codes(capsys, skew_file, tmp_path, argv, code, kind):
    psi = tmp_path / "psi.tsv"
    psi.write_text("x\tpsi\tx_exact\n0\t0\t0\n1\t1\t1\n")
    bimodal = tmp_path / "bimodal.pwa"
    bimodal.write_text(serialize_pwa(fixtures.bimodal_nonmarkov()))
    trapezoid = tmp_path / "trapezoid.pwa"
    trapezoid.write_text(serialize_pwa(fixtures.trapezoid()))
    argv = [a.format(f=skew_file, psi=psi, out=tmp_path / "e.tsv", bimodal=bimodal,
                     trapezoid=trapezoid) for a in argv]
    start = time.process_time()
    got, summary, out = run(capsys, argv)
    assert time.process_time() - start < 10   # each refusal comes before the work
    assert got == code
    assert len(out.splitlines()) == 1
    assert summary["error"][0].startswith(kind)
