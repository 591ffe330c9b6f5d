"""Config parsing, sweep orchestration, CSV emission and exit codes."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noma_ggn.specfun
from noma_ggn import (
    GGNoiseModel,
    canonical_event,
    estimate_pep_mc,
    pep_direct,
    pep_exact,
    simulate_ber,
)
from noma_ggn.cli import (
    CSV_HEADER,
    METRICS,
    ConfigError,
    main,
    parse_config,
    run_sweep,
)
from oracles import pep_mp

FAST = "trials=20000\nsnr_db=0:10:20\n"


class TestParseConfig:
    def test_reference_document(self):
        params = parse_config("users=3\npower=0.7,0.2,0.1\nalpha=2\nsnr_db=0:5:40")
        assert params.users == 3
        assert params.power == (0.7, 0.2, 0.1)
        assert params.alpha == 2.0
        assert params.snr_db == tuple(float(v) for v in range(0, 45, 5))

    def test_empty_document_gives_defaults(self):
        params = parse_config("")
        assert params.users == 3
        assert params.power == (0.7, 0.2, 0.1)
        assert params.alpha == 2.0
        assert params.seed == 1
        assert params.trials == 10**6
        assert params.constellation_name == "bpsk"

    def test_comments_and_blank_lines(self):
        params = parse_config("# a comment\n\nalpha=1  # trailing\n")
        assert params.alpha == 1.0

    def test_power_ordering_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("power=0.2,0.7,0.1")

    def test_power_sum_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("power=0.8,0.3,0.1")

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("nosuchkey=1", "unknown key"),
            ("alpha=2\nalpha=1", "duplicate"),
            ("alpha=", "empty value"),
            ("alpha", "key=value"),
            ("snr_db=5:0:40", "snr_db"),
            ("users=two", "users"),
            ("metrics=pep_analytic,nope", "unknown metric"),
            ("constellation=qam16", "constellation"),
        ],
    )
    def test_rejections_with_diagnostics(self, doc, fragment):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(doc)
        assert fragment in str(exc_info.value)

    def test_line_and_column_reported(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("alpha=2\nusers=zero\n")
        assert "line 2" in str(exc_info.value)

    def test_single_point_snr(self):
        assert parse_config("snr_db=25").snr_db == (25.0,)

    def test_round_trip(self):
        params = parse_config("alpha=1\ntrials=5000\nmetrics=pep_analytic\n")
        assert parse_config(params.canonical_text()) == params


class TestRunSweep:
    def test_analytic_row_count_and_order(self):
        params = parse_config("snr_db=0:5:40\ntrials=100")
        records = run_sweep(params, ("pep_analytic",))
        assert len(records) == 27  # 9 SNR points x 3 users
        keys = [(r.snr_db, r.user, r.metric) for r in records]
        assert keys == sorted(keys)
        assert all(r.ci_low is None and r.ci_high is None for r in records)
        assert all(0.0 <= r.value <= 1.0 for r in records)

    def test_mc_rows_carry_intervals(self):
        params = parse_config(FAST)
        records = run_sweep(params, ("pep_mc",))
        assert len(records) == 9
        assert all(r.ci_low is not None and r.ci_high is not None for r in records)
        assert all(r.ci_low <= r.value <= r.ci_high for r in records)

    def test_diversity_one_row_per_user_at_midpoint(self):
        params = parse_config("snr_db=60:20:80")
        records = run_sweep(params, ("diversity_slope",))
        assert len(records) == 3
        assert all(r.snr_db == 70.0 for r in records)
        assert [r.user for r in records] == [1, 2, 3]
        assert all(r.value >= 0.0 for r in records)

    def test_closed_needs_special_alpha(self):
        params = parse_config("alpha=1.5\nsnr_db=10")
        with pytest.raises(ConfigError):
            run_sweep(params, ("pep_closed",))

    def test_deterministic_csv(self):
        params = parse_config(FAST)
        rows1 = [r.as_csv_row() for r in run_sweep(params, ("pep_mc", "ber_sim"))]
        rows2 = [r.as_csv_row() for r in run_sweep(params, ("pep_mc", "ber_sim"))]
        assert rows1 == rows2


    @pytest.mark.parametrize("metric", ["pep_mc", "ber_sim"])
    def test_mc_rows_match_one_point_calls(self, metric):
        # the sweep makes one estimator call over all points; each row must
        # carry the estimate of its own (SNR, user)
        params = parse_config("trials=5000\nseed=3\nalpha=1\nsnr_db=0:10:20\n")
        model = GGNoiseModel.normalized(params.alpha)
        records = run_sweep(params, (metric,))
        assert len(records) == 9
        for rec in records:
            config = params.system_config(10.0 ** (rec.snr_db / 10.0))
            if metric == "pep_mc":
                (est,) = estimate_pep_mc(
                    [canonical_event(config, rec.user)], model, trials=5000, seed=3
                )
            else:
                est = simulate_ber([config], model, trials=5000, seed=3)[0][rec.user - 1]
            assert (rec.value, rec.ci_low, rec.ci_high) == (est.point, est.ci_low, est.ci_high)
        assert len({rec.value for rec in records}) > 3


class TestMain:
    def test_print_config_round_trip(self, capsys):
        assert main(["print-config"]) == 0
        text = capsys.readouterr().out
        assert parse_config(text) == parse_config("")

    def test_pep_subcommand_csv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST + "metrics=pep_analytic,pep_closed\n")
        assert main(["pep", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert len(out) == 1 + 2 * 9  # two metrics x 3 SNR x 3 users
        # closed form and quadrature routes agree in the emitted values
        closed = sorted(line for line in out[1:] if ",pep_closed," in line)
        exact = sorted(line for line in out[1:] if ",pep_analytic," in line)
        for c, e in zip(closed, exact):
            assert float(c.split(",")[4]) == pytest.approx(
                float(e.split(",")[4]), rel=1e-6
            )

    def test_output_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr_db=60:20:80\n")
        out = tmp_path / "slopes.csv"
        assert main(["diversity", str(cfg), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_diversity_default_window(self, capsys):
        assert main(["diversity"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        slopes = [float(line.split(",")[4]) for line in lines[1:]]
        for l, slope in enumerate(slopes, start=1):
            assert abs(slope - l) <= 0.25

    def test_diversity_default_window_with_config(self, tmp_path, capsys):
        # a config file that leaves snr_db out keeps the subcommand's window
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 3\n")
        assert main(["diversity", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [float(line.split(",")[0]) for line in lines] == [70.0] * 3
        for l, line in enumerate(lines, start=1):
            assert abs(float(line.split(",")[4]) - l) <= 0.25
        assert main(["print-config", str(cfg)]) == 0
        assert "snr_db=0:5:40" in capsys.readouterr().out

    def test_diversity_high_snr_windows(self, tmp_path, capsys):
        # the closed form's alternating sum cancels for user 3 above ~75 dB
        # (a slope of 2.35 over 90-110 dB, a negative PEP at 118 dB); the
        # slopes come from pep_exact and hold at alpha = 2
        cfg = tmp_path / "high.cfg"
        cfg.write_text("alpha=2\nsnr_db=90:20:110\n")
        assert main(["diversity", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        slopes = [float(line.split(",")[4]) for line in lines[1:]]
        assert len(slopes) == 3
        for l, slope in enumerate(slopes, start=1):
            assert abs(slope - l) <= 1e-3
        cfg.write_text("alpha=2\nsnr_db=100:18:118\n")
        assert main(["diversity", str(cfg)]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("power=0.2,0.7,0.1\n")
        assert main(["pep", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    # a NaN coefficient used to pass every power check: ber printed BERs of
    # about 0.5 and print-config echoed power=nan, both exiting 0
    @pytest.mark.parametrize("command", ["ber", "print-config"])
    def test_non_finite_power_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "power.cfg"
        cfg.write_text("power=0.7,nan,0.1\nsnr_db=10\ntrials=20000\nmetrics=ber_sim\n")
        assert main([command, str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: line 1, column 7:" in captured.err
        assert "power coefficients must be finite, got (0.7, nan, 0.1)" in captured.err

    # 4000 dB is finite but 10^(4000/10) is not
    @pytest.mark.parametrize(
        "spec", ["nan", "inf", "-inf", "0:nan:10", "nan:5:40", "4000", "0:1000:4000"]
    )
    def test_non_finite_snr_exit_code(self, tmp_path, capsys, spec):
        cfg = tmp_path / "snr.cfg"
        cfg.write_text(f"alpha=2\nsnr_db={spec}\n")
        assert main(["ber", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: line 2, column 8:" in err and "finite" in err

    # the point count is checked before the grid is built: 0:1e-320:1 used
    # to overflow it, 0:1e-9:1000 would build about 1e12 floats
    @pytest.mark.parametrize("spec", ["0:1e-320:1", "0:1e-9:1000", "-100000:1:0"])
    def test_oversized_snr_grid_exit_code(self, tmp_path, capsys, spec):
        cfg = tmp_path / "snr.cfg"
        cfg.write_text(f"alpha=2\nsnr_db={spec}\n")
        assert main(["pep", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: line 2, column 8:" in err and "points" in err

    def test_largest_snr_grid_accepted(self):
        assert len(parse_config("snr_db=-100000:1:-1").snr_db) == 100_000

    # Gamma(3/alpha)/Gamma(1/alpha) overflows a double below alpha ~ 0.0139
    @pytest.mark.parametrize("alpha", ["0.01", "0.013", "1e-310", "inf"])
    def test_alpha_without_finite_lambda0_exit_code(self, tmp_path, capsys, alpha):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text(f"snr_db=10\nalpha={alpha}\n")
        assert main(["pep", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: line 2, column 7:" in err and "alpha" in err

    def test_decay_argument_overflow_is_exact(self, tmp_path, capsys):
        # kappa ~ 1e12 here, and (kappa w)^alpha overflows a double from
        # kappa w ~ 2.6e15; a constructive integral ends where its gamma
        # factor underflows to 0 (kappa w ~ 1.39), so no node gets near that,
        # and the values match mpmath
        cfg = tmp_path / "steep.cfg"
        cfg.write_text("alpha=20\nsnr_db=250\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        config = parse_config(cfg.read_text()).system_config(10.0**25)
        for l, row in enumerate(rows, start=1):
            value = float(row.split(",")[4])
            assert value == pytest.approx(pep_mp(canonical_event(config, l)), rel=1e-10, abs=0.0)

    def test_very_low_snr_prints_values(self, tmp_path, capsys):
        # -130 dB: every event kept its class (the degeneracy test is
        # scale-free), and the values match the direct-averaging route and
        # the mpmath oracle
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("alpha=2\nsnr_db=-130\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        config = parse_config(cfg.read_text()).system_config(1e-13)
        for l, row in enumerate(rows, start=1):
            value = float(row.split(",")[4])
            direct = pep_direct(canonical_event(config, l), GGNoiseModel.normalized(2.0)).value
            assert 0.49 < value < 0.5
            reference = pep_mp(canonical_event(config, l))
            assert value == pytest.approx(direct, rel=1e-8, abs=0.0)
            assert value == pytest.approx(reference, rel=1e-8, abs=0.0)
            assert direct == pytest.approx(reference, rel=1e-10, abs=0.0)

    # a constructive integral spreads to w ~ 1e15 (-300 dB) and 1e50
    # (-1000 dB) here: the map t = w / (1 + w) of [0, inf) divided by zero
    # at t = 1 from about -250 dB (exit 1) and missed its target from about
    # -180 dB (exit 3)
    @pytest.mark.parametrize("alpha", ["2", "0.5"])
    @pytest.mark.parametrize("snr_db", ["-300", "-1000"])
    def test_far_below_zero_db_prints_values(self, tmp_path, capsys, alpha, snr_db):
        cfg = tmp_path / "faint.cfg"
        cfg.write_text(f"alpha={alpha}\nsnr_db={snr_db}\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert 0.0 < float(row.split(",")[4]) <= 0.5

    def test_overflowing_decay_scale_prints_the_limit(self, tmp_path, capsys):
        # kappa overflows to inf at this alpha and SNR; the PEP there is 0.0
        # in double, where the quadrature was once handed a scale of 0.0 (exit 2)
        cfg = tmp_path / "kappa.cfg"
        cfg.write_text("alpha=0.015\nsnr_db=2900\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            ["2900", str(l), "pep_analytic", "0.015", "0"] for l in (1, 2, 3)
        ]

    def test_overflowing_event_exit_code(self, tmp_path, capsys):
        # 10^308.1 is a finite SNR, but X^2 and zeta^2 of its events overflow
        cfg = tmp_path / "glare.cfg"
        cfg.write_text("alpha=2\nsnr_db=3081\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "overflows" in err

    def test_quadrature_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # at 0 dB pep_exact runs its quadrature for every user
        monkeypatch.setattr(noma_ggn.specfun, "_MAX_SUBDIVISIONS", 0)
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("snr_db=0\nmetrics=pep_analytic\n")
        assert main(["pep", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "quadrature route" in err and "best estimate" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["pep", str(tmp_path / "absent.cfg")]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # PEP underflows to exactly zero at absurd SNR: slope is undefined
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("snr_db=1000:1000:2000\n")
        assert main(["diversity", str(cfg)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # every check line ends with its wall time
        for line in out.splitlines():
            assert line.startswith("PASS ") and float(line.rsplit(" time=", 1)[1][:-2]) > 0.0

    def test_selftest_names_the_method_pep_exact_took(self, capsys):
        main(["selftest"])
        methods = set()
        for line in capsys.readouterr().out.splitlines():
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            method = line.split()[4].split("-vs-")[0]
            alpha, snr_db = float(fields["alpha"]), float(fields["snr"][:-2])
            params = parse_config(f"alpha={alpha}\nsnr_db={snr_db}")
            event = canonical_event(params.system_config(10.0 ** (snr_db / 10.0)), int(fields["user"]))
            assert method == pep_exact(event, GGNoiseModel.normalized(alpha)).method, line
            methods.add(method)
        assert methods == {"quadrature", "series_high"}


@st.composite
def run_documents(draw):
    """(subcommand, config document) over the whole input space: 1-6 users,
    descending power splits down to 1e-12, alpha from the lambda0 limit
    (about 0.0139) to 70, -1000 to 3000 dB, any metric, 1,000-5,000 trials.
    pep_closed gets an alpha of 1 or 2 and diversity_slope an SNR window, so
    that the examples reach the numerics rather than a configuration error.
    ber_union gets at most 3 users: its event count grows about fourfold per
    user, and at 6 users and alpha = 0.014 one point takes about 18 s."""
    metric = draw(st.sampled_from(METRICS))
    users = draw(st.integers(1, 3 if metric == "ber_union" else 6))
    exponents = draw(st.lists(st.floats(-12.0, 0.0), min_size=users, max_size=users))
    weights = [10.0**e for e in exponents]
    power = sorted((w / sum(weights) for w in weights), reverse=True)
    if metric == "pep_closed":
        alpha = draw(st.sampled_from([1.0, 2.0]))
    else:
        alpha = draw(st.floats(0.014, 70.0) | st.sampled_from([0.5, 1.0, 2.0]))
    lo = draw(st.floats(-1000.0, 3000.0))
    step = draw(st.floats(0.1, 100.0) if metric == "diversity_slope" else st.none())
    snr = f"{lo!r}" if step is None else f"{lo!r}:{step!r}:{lo + step!r}"
    doc = (
        f"users={users}\npower={','.join(map(repr, power))}\nalpha={alpha!r}\n"
        f"snr_db={snr}\nmetrics={metric}\ntrials={draw(st.integers(1000, 5000))}\n"
    )
    return draw(st.sampled_from(["pep", "ber", "diversity"])), doc


class TestWholeConfig:
    # derandomized, so the examples, and with them the cost (about 1.5 s), are
    # the same in every run; a larger random budget runs outside the suite
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(run=run_documents())
    # found by a random run: quadratures that divided by zero (exit 1)
    @example(run=("diversity", "users=1\npower=1.0\nalpha=50.54366208303919\n"
                  "snr_db=-538.49:43.672:-462.091\nmetrics=diversity_slope\ntrials=3164\n"))
    @example(run=("ber", "users=1\npower=1.0\nalpha=38.36896336589556\n"
                  "snr_db=-759.41:117.952:-641.458\nmetrics=ber_union\ntrials=3477\n"))
    def test_every_config_gives_values_or_a_named_error(self, tmp_path_factory, run):
        command, doc = run
        cfg = tmp_path_factory.mktemp("run") / "run.cfg"
        cfg.write_text(doc)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(cfg)])
        assert code in (0, 2, 3)
        if code == 0:
            for row in out.getvalue().splitlines()[1:]:
                _, _, metric, _, value = row.split(",")[:5]
                assert math.isfinite(float(value)), row
                # slopes need not lie in [0, 1]; pep_closed's bracket sum
                # cancels to values below 0 at high SNR, a known defect pinned
                # by test_pep.py's strict xfail test_closed_form_cancels_above_50db
                if metric not in ("diversity_slope", "pep_closed"):
                    assert 0.0 <= float(value) <= 1.0, row
