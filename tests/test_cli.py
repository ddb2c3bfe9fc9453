import dataclasses
import math
import warnings

import numpy as np
import pytest

from gkheat import (NonPositiveCoefficient, ParseError, StepperKind, build_grid,
                    cosine_initial, decay_constants, diagnostics, run, scheme)
from gkheat.cli import (TRACE_COLUMNS, _fmt, cmd_run, cmd_sweep, cmd_verify,
                        main, parse_config)
from oracles import discrete_decay_rate

FAST_CONFIG = """\
# coarse mesh, short horizon: keeps file-shape tests quick
dx = 2e-3
dt = 1.2e-2
t_final = 1.2
stride = 20
"""


def read_trace(path):
    """trace.csv as a structured array keyed by TRACE_COLUMNS, header checked."""
    with open(path, encoding="utf-8") as f:
        assert f.readline() == ",".join(TRACE_COLUMNS) + "\n"
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                      dtype=[(name, float) for name in TRACE_COLUMNS])


class TestParseConfig:
    def test_empty_text_gives_reference_defaults(self):
        m = parse_config("")
        assert m.params.rho == 2e3 and m.params.c == 5e2
        assert m.params.tau_q == 8e-3 and m.params.mu2 == 2.8e-3
        assert m.params.k == 2e3 and m.params.l == 0.1
        assert m.config.dx == 2e-4 and m.config.dt == 1.2e-2
        assert m.config.t_final == 30.0
        assert m.config.T_b == 15.0 and m.config.T_f == 30.0
        assert m.stepper is StepperKind.COUPLED_IMPLICIT
        assert m.stride == 25

    def test_fourier_manifest(self):
        m = parse_config("tau_q = 0\nmu2 = 0\n")
        assert m.params.is_fourier

    def test_comments_and_blank_lines(self):
        m = parse_config("\n# a comment\nT_b = 0  # inline comment\n\n")
        assert m.config.T_b == 0.0

    def test_negative_relaxation_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            parse_config("tau_q = -1\n")

    def test_unknown_key(self):
        with pytest.raises(ParseError) as exc:
            parse_config("rho = 2e3\nconductivity = 3\n")
        assert exc.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("rho = 2e3\njust words\n")
        assert exc.value.line == 2

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_config("rho = heavy\n")

    def test_bad_stepper(self):
        with pytest.raises(ParseError) as exc:
            parse_config("stepper = magic\n")
        assert str(exc.value) == ("line 1: stepper must be one of: coupled_implicit, "
                                  "vectorial_as_printed, fourier_limit")

    @pytest.mark.parametrize("key", ["rho", "c", "tau_q", "mu2", "k", "l", "dx", "dt",
                                     "t_final", "T_b", "T_f"])
    def test_number_keys(self, key):
        with pytest.raises(ParseError) as exc:
            parse_config(f"{key} = heavy\n")
        assert str(exc.value) == f"line 1: {key!r} needs a number, got 'heavy'"

    def test_fourier_limit_is_the_coupled_stepper(self):
        m = parse_config("tau_q = 0\nmu2 = 0\nstepper = fourier_limit\n")
        assert m.stepper is StepperKind.COUPLED_IMPLICIT
        assert m == parse_config("tau_q = 0\nmu2 = 0\n")

    @pytest.mark.parametrize("text", ["T_b = nan\n", "rho = 2e3\nT_f = inf\n",
                                      "dt = -inf\n"])
    def test_non_finite_number_rejected(self, text):
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert exc.value.line == text.count("\n")
        assert "finite" in str(exc.value)

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_config("T_b = 10\n# comment\nrho = 2e3\nT_b = 12\n")
        assert exc.value.line == 4
        assert "line 1" in str(exc.value) and "line 4" in str(exc.value)

    def test_stepper_choice(self):
        m = parse_config("stepper = vectorial_as_printed\n")
        assert m.stepper is StepperKind.VECTORIAL_AS_PRINTED


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_out")
    manifest = parse_config(FAST_CONFIG + f"out_dir = {out}\n")
    assert cmd_run(manifest) == 0
    return out


class TestCmdRun:
    def test_writes_all_four_files(self, run_dir):
        for name in ("trace.csv", "profiles.csv", "constants.txt", "plot.gp"):
            assert (run_dir / name).is_file()

    def test_trace_schema_and_roundtrip(self, run_dir):
        rows = read_trace(run_dir / "trace.csv")
        assert rows["n"][0] == 0 and rows["t"][0] == 0.0
        assert np.array_equal(rows["n"], np.arange(101))
        # 17 significant digits round-trip bit-faithfully
        text = (run_dir / "trace.csv").read_text().splitlines()
        for lineno in (1, 17, 100):
            parts = text[lineno].split(",")
            for p in parts[1:]:
                assert format(float(p), ".17g") == p

    def test_trace_is_physical(self, run_dir):
        rows = read_trace(run_dir / "trace.csv")
        E, heat = rows["E"], rows["heat"]
        assert np.all(E >= 0.0)
        assert np.all(np.diff(E) <= 1e-12 * E[0])
        assert np.max(np.abs(heat - heat[0])) <= 1e-12 * abs(heat[0])
        assert rows["diss_lhs"][0] == 0.0 and rows["diss_rhs"][0] == 0.0
        assert np.all(np.diff(rows["Z"]) >= 0.0)

    def test_profiles_shape(self, run_dir):
        lines = (run_dir / "profiles.csv").read_text().splitlines()
        header = lines[0].split(",")
        # x + stored levels (0, 20, 40, 60, 80, final) twice (T then q)
        n_stored = (len(header) - 1) // 2
        assert header[0] == "x"
        assert n_stored == 6
        assert len(lines) == 1 + 50  # J+1 node rows
        assert header[1].startswith("T_t") and header[1 + n_stored].startswith("q_t")

    def test_constants_content(self, run_dir):
        text = (run_dir / "constants.txt").read_text()
        values = dict(line.split(" = ") for line in text.splitlines())
        assert float(values["beta"]) == pytest.approx(4e-3, rel=1e-12)
        assert float(values["omega"]) == pytest.approx(0.1041, rel=1e-3)
        assert float(values["M0"]) == pytest.approx(3.0025, rel=1e-4)
        assert float(values["E_equilibrium_closed_form"]) == pytest.approx(
            1.125e7, rel=1e-12)
        # the reported reference level is listed next to the closed form
        assert float(values["E_equilibrium_reference_reported"]) == 1.24e7

    def test_plot_script_mentions_outputs(self, run_dir):
        text = (run_dir / "plot.gp").read_text()
        assert "trace.csv" in text and "profiles.csv" in text
        assert "envelope" in text

    @pytest.mark.parametrize("lines,case", [("", "gk"), ("tau_q = 0\nmu2 = 0\n", "fourier")])
    def test_prints_the_case(self, tmp_path, capsys, lines, case):
        manifest = parse_config(FAST_CONFIG + lines + f"out_dir = {tmp_path}\n")
        assert cmd_run(manifest) == 0
        assert capsys.readouterr().out.endswith(f"(100 steps, J=49, case={case})\n")

    def test_fourier_limit_writes_the_coupled_files(self, tmp_path, capsys):
        outputs = []
        for stepper in ("fourier_limit", "coupled_implicit"):
            cfg = tmp_path / f"{stepper}.cfg"
            cfg.write_text(FAST_CONFIG + f"tau_q = 0\nmu2 = 0\nstepper = {stepper}\n"
                           f"out_dir = {tmp_path / 'o'}\n")
            assert main(["run", "-c", str(cfg)]) == 0
            outputs.append([capsys.readouterr().out] + [
                (tmp_path / "o" / name).read_bytes()
                for name in ("trace.csv", "profiles.csv", "constants.txt", "plot.gp")])
        assert outputs[0] == outputs[1]

    def test_deterministic_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_run(parse_config(FAST_CONFIG + f"out_dir = {out_a}\n"))
        cmd_run(parse_config(FAST_CONFIG + f"out_dir = {out_b}\n"))
        for name in ("trace.csv", "profiles.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("T_b,T_f", [(15.0, 30.0), (0.0, 0.0), (0.0, 1e-200)])
    def test_csv_text_matches_fmt(self, tmp_path, T_b, T_f):
        # the streamed files are byte for byte the _fmt-joined text; zero
        # initial data puts nan in Z, and so does data whose energy
        # underflows, which also writes -0 and numbers near 1e-203
        out = tmp_path / "o"
        manifest = parse_config(FAST_CONFIG + f"T_b = {T_b}\nT_f = {T_f}\n"
                                f"out_dir = {out}\n")
        assert cmd_run(manifest) == 0
        grid = build_grid(manifest.params, manifest.config)
        traj = run(manifest.params, manifest.config,
                   cosine_initial(grid, T_b, T_f),
                   keep=scheme.strided_steps(grid, manifest.stride))
        tr = traj.trace
        dc = decay_constants(manifest.params)
        Z = np.full(len(tr), np.nan)
        if tr.E[0] > 0.0:
            Z = 1.0 + (dc.M1 * diagnostics.supremum_boundary_term(tr)
                       / (dc.M * tr.E[0])) * np.exp(dc.omega * tr.t)
        cols = (tr.t, tr.E, tr.diss_lhs, tr.diss_rhs, tr.heat, tr.C_T,
                tr.lyapunov, Z)
        expected = [",".join(TRACE_COLUMNS)] + [
            ",".join([str(n)] + [_fmt(c[n]) for c in cols]) for n in range(len(tr))]
        assert (out / "trace.csv").read_text() == "\n".join(expected) + "\n"
        assert ("nan" in expected[-1]) == (T_b == 0.0)
        if T_f == 1e-200:
            assert ",-0," in expected[-1] and "e-203," in expected[-1]
        rows = ([_fmt(grid.x[j])] + [_fmt(T) for T in traj.T[:, j]]
                + [_fmt(q) for q in traj.q[:, j]] for j in range(grid.J + 1))
        body = (out / "profiles.csv").read_text().split("\n", 1)[1]
        assert body == "".join(",".join(r) + "\n" for r in rows)

    def test_full_reference_run(self, tmp_path):
        # default manifest end to end: 2500 steps at J=499, final energy at
        # the closed-form equilibrium within 0.5%
        manifest = parse_config(f"out_dir = {tmp_path / 'ref'}\n")
        assert cmd_run(manifest) == 0
        rows = read_trace(tmp_path / "ref" / "trace.csv")
        assert len(rows) == 2501
        assert rows["E"][-1] == pytest.approx(1.125e7, rel=5e-3)
        assert rows["t"][-1] == pytest.approx(30.0, rel=1e-12)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ParseError):
            parse_config("stride = 0\n")

    def test_long_horizon_z_overflows_to_inf_without_warnings(self, tmp_path):
        # omega is about 0.104 1/s, so exp(omega t) overflows from t = 6811 s
        # on; Z is then inf, silently (warnings are errors here)
        out = tmp_path / "long"
        assert cmd_run(parse_config(f"dx = 5e-3\ndt = 1\nt_final = 8000\n"
                                    f"out_dir = {out}\n")) == 0
        Z = read_trace(out / "trace.csv")["Z"]
        assert np.all(np.isfinite(Z[:6811])) and np.all(Z[6811:] == np.inf)

    def test_decay_constants_are_computed_once(self, tmp_path, monkeypatch):
        # the three writers share one DecayConstants and one sup|C_T|
        calls = []
        for name in ("decay_constants", "supremum_boundary_term"):
            def spy(*args, _name=name, _fn=getattr(diagnostics, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(diagnostics, name, spy)
        assert cmd_run(parse_config(FAST_CONFIG + f"out_dir = {tmp_path}\n")) == 0
        assert sorted(calls) == ["decay_constants", "supremum_boundary_term"]


class TestCmdVerify:
    def test_all_properties_pass(self, tmp_path, capsys):
        manifest = parse_config(FAST_CONFIG + f"out_dir = {tmp_path}\n")
        assert cmd_verify(manifest) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    def test_zero_initial_data_passes_trivially(self, tmp_path, capsys):
        manifest = parse_config(
            FAST_CONFIG + f"T_b = 0\nT_f = 0\nout_dir = {tmp_path}\n")
        assert cmd_verify(manifest) == 0

    def test_zero_base_temperature_gets_the_offset_bound(self, tmp_path, capsys):
        # T_b = 0 leaves the discrete heat dx*T_f/2, so C_T and the
        # envelope's offset are not 0: the pure zero-mean bound does not
        # hold over a long horizon, and the offset bound does
        cfg = tmp_path / "zero_base.cfg"
        cfg.write_text("T_b = 0\nt_final = 300\ndx = 5e-3\n")
        assert main(["verify", "-c", str(cfg)]) == 0
        assert "PASS decay_envelope: offset bound" in capsys.readouterr().out

    @pytest.mark.parametrize("tau_q", ["1e-15", "1e-16"])
    def test_tiny_relaxation_time_passes(self, tmp_path, capsys, tau_q):
        # the slow continuum root, which the rate check is held to, is about
        # 1e15 times smaller than the fast one here
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"tau_q = {tau_q}\ndx = 2e-3\nout_dir = {tmp_path}\n")
        assert main(["verify", "-c", str(cfg)]) == 0, capsys.readouterr().out

    def test_huge_relaxation_time_passes_the_oracle(self, tmp_path, capsys):
        # the oracle's stored states overflow the trace columns here, which
        # the check does not read: its runs trace E alone
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("tau_q = 1e160\ndx = 2e-3\n")
        main(["verify", "-c", str(cfg)])
        out, err = capsys.readouterr()
        assert "PASS oracle_equivalence" in out and "numerical failure" not in err

    @pytest.mark.parametrize("lines", [
        "mu2 = 1e10\ndx = 2e-3\n", "mu2 = 1e100\ndx = 2e-3\n", "mu2 = 1e300\ndx = 2e-3\n",
        "k = 1e-9\n", "rho = 1e300\ndx = 2e-3\n", "k = 1e-300\ndx = 2e-3\n"],
        ids=["mu2=1e10", "mu2=1e100", "mu2=1e300", "k=1e-9", "rho=1e300", "k=1e-300"])
    def test_oracle_passes_at_the_parameter_edges(self, tmp_path, capsys, lines):
        # at large mu2 a step's flux entry 1 + D_bb cancelled in run; at the
        # others the unequilibrated dense reference lost digits
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(lines)
        main(["verify", "-c", str(cfg)])
        assert "\nPASS oracle_equivalence: " in capsys.readouterr().out

    def test_oracle_passes_where_a_step_damps_the_temperature_by_orders(self, tmp_path,
                                                                         capsys):
        # a step keeps 1.2e-6 of every mode's temperature here: G_aa as
        # 1 + D_aa kept only D_aa's rounding, and the probe read 1.850e-11
        cfg = tmp_path / "damped.cfg"
        cfg.write_text("rho = 4.294e39\nc = 4.351e-79\nk = 6.969e-23\ntau_q = 0.6618\n"
                       "mu2 = 2.782e11\ndx = 0.0125\ndt = 6\nt_final = 456\nT_b = 1000\n")
        assert main(["verify", "-c", str(cfg)]) == 0
        assert ("PASS oracle_equivalence: worst step backward error 1.980e-16"
                in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("lines,line", [
        ("", "PASS oracle_equivalence: worst step backward error 2.341e-16"),
        # the dense reference's per-level gap FAILed here (3.992e-10), and
        # there the reference, not run, was off
        ("dt = 5\nt_final = 5\n",
         "PASS oracle_equivalence: worst step backward error 3.419e-16")],
        ids=["defaults", "dt=5"])
    def test_oracle_verdicts_are_pinned(self, tmp_path, capsys, lines, line):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(lines)
        assert main(["verify", "-c", str(cfg)]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_huge_relaxation_time_prints_short_lines(self, tmp_path, capsys):
        # the sandwich's lower ratio is about 1.6e159 here, in e-notation
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("tau_q = 1e160\ndx = 2e-3\n")
        assert main(["verify", "-c", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and all(len(line) < 200 for line in lines)
        assert lines[3].startswith("PASS lyapunov_sandwich: lower ratio >= 1.5625e+159")

    @pytest.mark.parametrize("lines", [
        "k = 1e-9\n", "mu2 = 1e10\ndx = 2e-3\n", "mu2 = 1e100\ndx = 2e-3\n",
        "mu2 = 1e160\ndx = 2e-3\n", "mu2 = 1e200\ndx = 2e-3\n", "mu2 = 1e300\ndx = 2e-3\n",
        "rho = 1e300\ndx = 2e-3\n", "k = 1e-300\ndx = 2e-3\n", "tau_q = 1e160\ndx = 2e-3\n",
        "dt = 5\nt_final = 5\n", "dt = 30\nt_final = 300\n", "k = 1e9\n",
        "dt = 100\nt_final = 300\n", "rho = 1e-300\ndx = 2e-3\n", "c = 1e-30\ndx = 2e-3\n",
        "k = 1e30\ndx = 2e-3\n", "dt = 1e20\nt_final = 1e20\ndx = 2e-3\n"],
        ids=["k=1e-9", "mu2=1e10", "mu2=1e100", "mu2=1e160", "mu2=1e200", "mu2=1e300",
             "rho=1e300", "k=1e-300", "tau_q=1e160", "dt=5", "dt=30", "k=1e9", "dt=100",
             "rho=1e-300", "c=1e-30", "k=1e30", "dt=1e20"])
    def test_rate_check_passes_at_the_parameter_edges(self, tmp_path, capsys, lines):
        # a least-squares fit to a dt/8 run FAILed the first ten and ended
        # dt = 30 and k = 1e9 with exit 2 (too few levels in its window);
        # the exact rate is within 0.03% of the continuum one on each.  At
        # dt = 5, 30 and 100 and k = 1e9 the dense reference's per-level
        # gap then FAILed oracle_equivalence, where run was right.  The
        # step's rate halved from dt/8 FAILed the last four, whose mode 1
        # no 64 halvings could resolve; the generator's rate reads it at
        # the user's dt
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(lines)
        assert main(["verify", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("FAIL")] == []
        assert any(line.startswith("PASS mode_rate_fit: discrete ") for line in out)

    @pytest.mark.parametrize("lines", ["", "dt = 5e-5\nt_final = 0.1\n",
                                       "dt = 1e-5\nt_final = 0.1\n", "t_final = 0.036\n"],
                             ids=["defaults", "dt=5e-5", "dt=1e-5", "3 steps"])
    def test_verify_makes_no_run_longer_than_its_main_run(self, tmp_path, monkeypatch,
                                                          lines):
        # the main run, with a full trace, and the oracle's levels-only run
        # of 10 steps, or of the main run's steps if fewer; the rate check
        # takes no step (a fitted rate read a run over 6 s at dt/8: 960,000
        # steps at dt = 5e-5)
        steps, original = [], scheme.run

        def counted(params, config, init, **kwargs):
            steps.append((round(config.t_final / config.dt), kwargs.get("levels_only", False)))
            return original(params, config, init, **kwargs)

        monkeypatch.setattr(scheme, "run", counted)
        cfg = tmp_path / "steps.cfg"
        cfg.write_text(lines)
        assert main(["verify", "-c", str(cfg)]) == 0
        manifest = parse_config(lines)
        main_steps = round(manifest.config.t_final / manifest.config.dt)
        assert steps == [(main_steps, False), (min(10, main_steps), True)]

    def test_tiny_step_passes_without_a_warning(self, tmp_path, capsys):
        # rho c/dt is past the float range: the dense reference's solve
        # overflowed here (exit 2); the backward error's rows are times dt
        cfg = tmp_path / "tiny_dt.cfg"
        cfg.write_text("dt = 1e-303\nt_final = 1e-301\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "-c", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "PASS oracle_equivalence: " in out and err == ""

    def test_as_printed_reports_gap(self, tmp_path, capsys):
        manifest = parse_config(
            "dx = 2e-3\ndt = 1.2e-2\nt_final = 1.2\n"
            f"stepper = vectorial_as_printed\nout_dir = {tmp_path}\n")
        # properties are checked on the reference coupled solve; the gap
        # report is informational and must not flip the exit status
        assert cmd_verify(manifest) == 0
        out = capsys.readouterr().out
        assert "printed-vs-coupled gap" in out
        assert "halving ratios" in out

    @pytest.mark.parametrize("lines", ["", "dx = 2e-3\n"], ids=["defaults", "coarse"])
    def test_checks_run_the_coupled_scheme_whatever_the_stepper(self, capsys, lines):
        # the stepper adds the INFO gap report and changes no check line
        verdicts = []
        for stepper in ("coupled_implicit", "vectorial_as_printed"):
            cmd_verify(parse_config(lines + f"stepper = {stepper}\n"))
            verdicts.append([line for line in capsys.readouterr().out.splitlines()
                             if line.startswith(("PASS ", "FAIL "))])
        assert len(verdicts[0]) == 7 and verdicts[1] == verdicts[0]

    def test_as_printed_gap_ratios_on_zero_data_are_nan(self, capsys):
        # every gap is 0 on zero data, and its ratio is printed as nan
        manifest = parse_config("T_b = 0\nT_f = 0\ndx = 2e-3\n"
                                "stepper = vectorial_as_printed\n")
        assert cmd_verify(manifest) == 0
        out = capsys.readouterr().out.splitlines()
        assert out.count("INFO gap halving ratios: nan, nan") == 1
        assert sum(line.startswith("PASS ") for line in out) == 7

    def test_as_printed_gap_lines_at_the_defaults(self, capsys):
        assert cmd_verify(parse_config("stepper = vectorial_as_printed\n")) == 0
        info = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("INFO")]
        assert info == ["INFO printed-vs-coupled gap at dt=0.012: 2.213438e-01",
                        "INFO printed-vs-coupled gap at dt=0.006: 1.933221e-01",
                        "INFO printed-vs-coupled gap at dt=0.003: 1.536787e-01",
                        "INFO gap halving ratios: 0.8734, 0.7949"]


class TestCmdSweep:
    def test_reference_pairs(self, tmp_path, capsys):
        manifest = parse_config(
            f"dx = 2e-3\ndt = 1.5e-3\nt_final = 6\nout_dir = {tmp_path}\n")
        pairs = [(8e-3, 2.8e-3), (4e-3, 1.4e-3), (0.0, 0.0)]
        assert cmd_sweep(manifest, pairs) == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "tau_q,mu2,fitted_rate,omega,M,E_final,monotone"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            fitted, omega = float(cells[2]), float(cells[3])
            assert fitted >= omega          # proven rate is a lower envelope
            assert cells[6] == "1"

    def test_default_pairs_match_the_discrete_rate(self, tmp_path):
        # the step rates of mode 1 on the reference mesh against numpy's
        # eigenvalues of its step matrix; measured gaps 2.8e-15, 8.1e-15
        # and 1.6e-15, against the 2% of the continuum oracle
        cfg = tmp_path / "ref.cfg"
        cfg.write_text(f"out_dir = {tmp_path}\n")
        assert main(["sweep", "-c", str(cfg)]) == 0
        manifest = parse_config(cfg.read_text())
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            tau_q, mu2, fitted = map(float, row.split(",")[:3])
            params = dataclasses.replace(manifest.params, tau_q=tau_q, mu2=mu2)
            r_d = discrete_decay_rate(params, build_grid(params, manifest.config))
            assert fitted == pytest.approx(r_d, rel=1e-13)

    def test_fourier_pair_rate(self, tmp_path):
        manifest = parse_config(
            f"dx = 2e-3\ndt = 1.5e-3\nt_final = 6\nout_dir = {tmp_path}\n")
        cmd_sweep(manifest, [(0.0, 0.0)])
        line = (tmp_path / "summary.csv").read_text().splitlines()[1]
        fitted = float(line.split(",")[2])
        target = 2 * (2e3 / 1e6) * (math.pi / 0.1) ** 2
        assert fitted == pytest.approx(target, rel=0.02)

    def test_makes_no_run(self, tmp_path, monkeypatch):
        # every column comes from the step matrices
        def no_run(*args, **kwargs):
            raise AssertionError("scheme.run called")

        monkeypatch.setattr(scheme, "run", no_run)
        manifest = parse_config(f"dx = 2e-3\nout_dir = {tmp_path}\n")
        assert cmd_sweep(manifest, [(8e-3, 2.8e-3), (0.0, 0.0)]) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == ["1", "1"]

    def test_an_expansive_step_reads_not_monotone(self, tmp_path, monkeypatch):
        # mode 4's G times 1.01 can raise E, from some state if not from
        # the cosine profile, where its energy gain was above 1/1.01^2:
        # 0.984 on the GK pair, and 0.527 on the Fourier pair, which stays
        # below 1
        assemble = scheme.assemble

        def expansive(*args):
            G, D = assemble(*args)
            G[..., 3] *= 1.01
            return G, D

        monkeypatch.setattr(scheme, "assemble", expansive)
        manifest = parse_config(f"dx = 2e-3\nout_dir = {tmp_path}\n")
        assert cmd_sweep(manifest, [(8e-3, 2.8e-3), (0.0, 0.0)]) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == ["0", "1"]

    def test_empty_pair_list(self, tmp_path):
        manifest = parse_config(f"dx = 2e-3\nout_dir = {tmp_path}\n")
        assert cmd_sweep(manifest, []) == 0
        assert (tmp_path / "summary.csv").read_text() == \
            "tau_q,mu2,fitted_rate,omega,M,E_final,monotone\n"


class TestMain:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "-c", str(tmp_path / "nope.cfg")]) == 1

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"T_b = 15 # caf\xe9\n")
        assert main(["verify", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config: ")

    @pytest.mark.parametrize("line,message", [
        ("dx 2e-3", "line 1: expected 'key = value'"),           # ParseError
        ("warp = 9", "line 1: unknown configuration key 'warp'"),  # ParseError
        ("k = -1", "coefficient 'k' violates"),                  # NonPositiveCoefficient
        ("dx = 3e-4", "l/dx: 0.1 is not an integer multiple"),   # NonDivisibleMesh
        ("stepper = implicit", "line 1: stepper must be one of")])  # ParseError
    def test_config_error_exits_one(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + f"\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_invalid_coefficient_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau_q = -1\n")
        assert main(["run", "-c", str(cfg)]) == 1

    def test_unknown_key_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp = 9\n")
        assert main(["verify", "-c", str(cfg)]) == 1

    def test_unstable_as_printed_run_exits_two(self, tmp_path):
        # the as-printed update is explicit in its temperature correction and
        # blows up in the Fourier limit; the overflow is a numerical failure
        cfg = tmp_path / "blow.cfg"
        cfg.write_text("tau_q = 0\nmu2 = 0\nstepper = vectorial_as_printed\n"
                       "dx = 2e-3\nt_final = 2.4\n"
                       f"out_dir = {tmp_path / 'x'}\n")
        assert main(["run", "-c", str(cfg)]) == 2

    def test_overflowing_energy_exits_two_without_warnings(self, tmp_path, capsys):
        # at J = 999 the levels' energy overflows while the levels are
        # still finite; that is a numerical failure, not a warning
        cfg = tmp_path / "blow.cfg"
        cfg.write_text("tau_q = 0\nmu2 = 0\nstepper = vectorial_as_printed\n"
                       "dx = 1e-4\nt_final = 2.4\n"
                       f"out_dir = {tmp_path / 'x'}\n")
        assert main(["run", "-c", str(cfg)]) == 2
        assert "numerical failure: step" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "T_b = 1.5e308\nT_f = 1.5e308\n",    # the profile itself overflows
        "dx = 2e-3\nT_f = 1e200\n",           # its energy overflows
        "dx = 2e-3\nT_b = 1e160\n"])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overflowing_initial_data_exits_one(self, tmp_path, capsys, lines,
                                                command):
        # a configuration error, found before any step runs
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(lines + f"out_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "T_b" in err and "T_f" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mu2", ["1e303", "1e306"])
    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_overflowing_step_exits_one(self, tmp_path, capsys, mu2, command):
        # mu2 dt/((tau_q + dt) dx^2) overflows: a configuration error, found
        # before any step runs and without a warning (warnings are errors here)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"mu2 = {mu2}\ndx = 2e-3\nout_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the step matrices overflow") and "mu2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines,name", [
        ("mu2 = 1e305\n", "mu2"),             # F's (rho c/2) dx (dx^2/s^2 + mu2)
        ("rho = 1e200\nc = 1e200\n", "rho")],  # rho c, in every weight of E
        ids=["mu2", "rho_c"])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overflowing_trace_weights_exit_one(self, tmp_path, capsys, lines, name,
                                                command):
        # the step matrices are finite: a configuration error, found before
        # any step runs and without a warning, and not blamed on T_b and T_f
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(lines + f"dx = 0.05\nt_final = 6\nout_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the trace weights overflow") and name in err
        assert not (tmp_path / "o").exists()

    def test_failed_sweep_leaves_no_directory(self, tmp_path, capsys):
        # the pair's decay rate omega underflows: a numerical failure
        # before summary.csv, whose directory is not made
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"dx = 2e-3\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "-c", str(cfg), "--pair", "1e300,0"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (tmp_path / "o").exists()

    def test_sweep_reads_no_overflowing_trace_weight(self, tmp_path):
        # sweep reads E's weights alone, which are finite here
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"mu2 = 1e305\ndx = 0.05\nt_final = 6\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "-c", str(cfg)]) == 0

    def test_verify_at_a_huge_step_raises_no_warning(self, tmp_path, capsys):
        # the flux law's terms reach 1e307 at dt = 1e300, dx = 2e-4; the
        # backward error scales them before summing, so no sum overflows
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"dt = 1e300\nt_final = 1e300\nout_dir = {tmp_path / 'o'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "-c", str(cfg)]) == 0
        assert "PASS oracle_equivalence: " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["run", "--nope"], ["frobnicate"],
                                      ["sweep", "--pair", "1,2,3"]])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage: gkheat" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: gkheat" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["T_b = nan", "T_f = inf"])
    def test_non_finite_config_exits_one(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + line + f"\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", "-c", str(cfg)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["t_final = 1e300", "dx = 1e-300"])
    def test_huge_mesh_exits_one(self, tmp_path, capsys, line):
        # refused by the mesh-size cap before anything is allocated
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(line + f"\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", "-c", str(cfg)]) == 1
        assert "mesh points" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_over_memory_cap_exits_one(self, tmp_path, capsys):
        # J+2 = 100,001 and N+2 = 3,001 are both far under MAX_MESH_POINTS,
        # but keeping all 3,001 states of 200,003 values (and writing them
        # out) is estimated at ~9.6 GB
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("dx = 1e-6\nt_final = 36\nstride = 1\n"
                       f"out_dir = {tmp_path / 'o'}\n")
        assert main(["run", "-c", str(cfg)]) == 1
        assert "MAX_RUN_BYTES" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_over_memory_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        # sweep makes no run, but refuses where a levels-only run keeping
        # its last level would hold too much, before assembling, as a run does
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"dx = 2e-3\nout_dir = {tmp_path / 'o'}\n")
        manifest = parse_config(cfg.read_text())
        grid = build_grid(manifest.params, manifest.config)
        monkeypatch.setattr(scheme, "MAX_RUN_BYTES", scheme.run_memory_bytes(
            grid, np.array([grid.N + 1]), levels_only=True) - 1)
        monkeypatch.setattr(scheme, "assemble", None)
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: a run on J=49, N=2499 keeping 1 levels would hold ")
        assert not (tmp_path / "o").exists()

    def test_value_error_from_a_bug_propagates(self, tmp_path, monkeypatch):
        # exit 2 is for numerical failures only, not for any ValueError
        def broken(*args, **kwargs):
            raise ValueError("a programming error")

        monkeypatch.setattr(scheme, "run", broken)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(FAST_CONFIG + f"out_dir = {tmp_path / 'o'}\n")
        with pytest.raises(ValueError, match="a programming error"):
            main(["run", "-c", str(cfg)])

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_underflowing_decay_rate_exits_two(self, tmp_path, capsys, command):
        # omega = beta/(... + 2 tau_q k/(rho c)) is 0 in floating point
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(f"tau_q = 1e300\ndx = 2e-3\nout_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 2
        assert "omega" in capsys.readouterr().err

    def test_underflowing_decay_rate_fails_the_command_not_the_run(self, tmp_path,
                                                                   capsys):
        # the library run traces the trajectory; only the run command,
        # whose files print the decay constants, needs omega > 0
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(f"tau_q = 1e300\ndx = 2e-3\nout_dir = {tmp_path / 'o'}\n")
        manifest = parse_config(cfg.read_text())
        grid = build_grid(manifest.params, manifest.config)
        trace = run(manifest.params, manifest.config, cosine_initial(grid, 15.0, 30.0),
                    keep=[grid.N + 1]).trace
        assert np.all(np.isfinite(trace.E)) and np.all(np.isfinite(trace.C_T))
        assert main(["run", "-c", str(cfg)]) == 2
        assert "omega" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("l,dx", [(1e-300, 1e-301), (1e300, 2e298)],
                             ids=["tiny", "huge"])
    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_extreme_domain_length_exits_one(self, tmp_path, capsys, l, dx, command):
        # refused before anything is built: dx^2 underflows to 0 in the
        # tiny domain, and dx^3 and l^2 overflow in the huge one
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(f"l = {l}\ndx = {dx}\nout_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: l = {l!r} m (dx = {dx!r} m)")

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_fourier_limit_with_relaxation_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "limit.cfg"
        cfg.write_text(f"dx = 2e-3\nstepper = fourier_limit\nout_dir = {tmp_path / 'o'}\n")
        assert main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: stepper fourier_limit needs tau_q = mu2 = 0")
        assert not (tmp_path / "o").exists()

    def test_duplicate_key_exits_one(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("stride = 5\nstride = 7\n")
        assert main(["verify", "-c", str(cfg)]) == 1

    def test_run_and_sweep_round(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(FAST_CONFIG + f"out_dir = {tmp_path / 'o'}\n")
        assert main(["run", "-c", str(cfg)]) == 0
        assert main(["sweep", "-c", str(cfg), "--pair", "0,0"]) == 0
        assert (tmp_path / "o" / "summary.csv").is_file()
