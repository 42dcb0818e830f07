"""Command-line surface: formats, exit codes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from qkdlimits import cli, result_record_schema
from qkdlimits.cli import main


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json", "--no-timestamp"])
    return code, json.loads(out) if out.strip() else None, err


def test_version(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.strip() == "qkdlimits 0.1.0"


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


class TestThresholds:
    def test_plain_table(self, capsys):
        code, out, _ = run_cli(capsys, ["thresholds"])
        assert code == 0
        assert "mub_2" in out and "mub_3" in out

    def test_symmetric_values(self, capsys):
        code, rec, _ = run_json(capsys, ["thresholds"])
        assert code == 0
        assert rec["results"]["mub_2"]["qber_threshold_symmetric"] == 0.25
        assert rec["results"]["mub_3"]["qber_threshold_symmetric"] == pytest.approx(1 / 3)
        assert rec["results"]["mub_2"]["intercept_resend_qber"] == 0.25

    def test_detector_gives_gamma_min(self, capsys):
        code, rec, _ = run_json(
            capsys, ["thresholds", "--y0", "1e-8", "--e-det", "0.01"]
        )
        assert code == 0
        assert math.isclose(
            rec["results"]["mub_2"]["gamma_min"], 1.0416666558159723e-08, rel_tol=1e-12
        )
        assert math.isclose(
            rec["results"]["mub_3"]["gamma_min"], 5.154639148687427e-09, rel_tol=1e-12
        )

    def test_detector_flags_go_together(self, capsys):
        code, _, err = run_cli(capsys, ["thresholds", "--y0", "1e-8"])
        assert code == 1
        assert "--e-det" in err

    def test_partially_infeasible_detector_still_succeeds(self, capsys):
        code, rec, _ = run_json(
            capsys, ["thresholds", "--y0", "1e-8", "--e-det", "0.3"]
        )
        assert code == 0
        assert rec["results"]["mub_2"]["status"] == "infeasible"
        assert "gamma_min" in rec["results"]["mub_3"]

    def test_fully_infeasible_detector_exits_2(self, capsys):
        code, rec, _ = run_json(
            capsys, ["thresholds", "--mub", "2", "--y0", "1e-8", "--e-det", "0.3"]
        )
        assert code == 2
        assert rec["results"]["mub_2"]["feasible"] is False

    @pytest.mark.parametrize("trials", ["-5", "-1"])
    def test_negative_monte_carlo_trials_is_an_input_error(self, capsys, trials):
        code, out, err = run_cli(capsys, ["thresholds", "--mc-trials", trials])
        assert code == 1
        assert out == ""
        assert f"trials={trials}" in err

    @pytest.mark.parametrize(
        "argv, flag, needs",
        [
            (["--seed", "5"], "--seed", "--mc-trials"),
            (["--mc-trials", "0", "--seed", "5"], "--seed", "--mc-trials"),
            (["--eta-eff", "0.5"], "--eta-eff", "--y0"),
        ],
    )
    def test_a_flag_without_the_flags_it_needs_is_an_input_error(self, capsys, argv, flag, needs):
        code, out, err = run_cli(capsys, ["thresholds", *argv])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} needs {needs}")

    def test_monte_carlo_columns(self, capsys):
        code, rec, _ = run_json(
            capsys, ["thresholds", "--mc-trials", "20000", "--seed", "7"]
        )
        assert code == 0
        row = rec["results"]["mub_2"]
        se = math.sqrt(0.25 * 0.75 / 20000)
        assert abs(row["intercept_resend_qber_mc"] - 0.25) < 5 * se
        assert row["intercept_resend_qber_mc_stderr"] > 0.0

    def test_monte_carlo_seed_defaults_to_zero(self, capsys):
        argv = ["thresholds", "--mc-trials", "2000"]
        code, out, err = run_cli(capsys, argv + ["--format", "json", "--no-timestamp"])
        assert (code, err) == (0, "")
        assert json.loads(out)["inputs"]["seed"] == 0
        assert run_cli(capsys, argv + ["--seed", "0", "--format", "json", "--no-timestamp"]) == (0, out, "")


class TestChannel:
    def test_identity(self, capsys):
        code, rec, _ = run_json(capsys, ["channel", "--p", "1", "0", "0", "0"])
        assert code == 0
        r = rec["results"]
        assert r["npt"] is True
        assert r["zero_capacity"] is False
        assert r["phi_upper_bound_bits"] == 1.0

    def test_bit_phase_flip(self, capsys):
        code, rec, _ = run_json(capsys, ["channel", "--p", "0.75", "0.25", "0", "0"])
        assert code == 0
        assert math.isclose(
            rec["results"]["phi_upper_bound_bits"], 0.18872187554086714, rel_tol=1e-12
        )

    def test_loose_input_is_renormalized(self, capsys):
        code, rec, _ = run_json(
            capsys, ["channel", "--p", "0.5", "0.1667", "0.1667", "0.1667"]
        )
        assert code == 0
        assert math.fsum(rec["results"]["p_normalized"]) == pytest.approx(1.0, abs=1e-12)
        assert rec["results"]["zero_capacity"] is True

    def test_a_small_negative_weight_is_clipped_and_renormalized(self, capsys):
        # The weights sum to 1, but clipping -5e-4 to 0 leaves 1.0005:
        # the clipped weights are divided by their own sum.
        code, rec, err = run_json(capsys, ["channel", "--p", "-0.0005", "0.5", "0.3", "0.2005"])
        assert (code, err) == (0, "")
        p = rec["results"]["p_normalized"]
        assert p[0] == 0.0
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)

    def test_far_from_normalized_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["channel", "--p", "0.5", "0.17", "0.17", "0.17"])
        assert code == 1
        assert "probabilities sum" in err

    def test_negative_entry_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["channel", "--p", "1.1", "-0.1", "0", "0"])
        assert code == 1

    def test_uniform_mixture(self, capsys):
        code, rec, _ = run_json(capsys, ["channel", "--p", "0.25", "0.25", "0.25", "0.25"])
        assert code == 0
        assert rec["results"]["zero_capacity"] is True
        assert rec["results"]["npt"] is False


class TestQber:
    def test_three_basis_interior(self, capsys):
        code, rec, _ = run_json(capsys, ["qber", "--ex", "0.1", "--ez", "0.1", "--ey", "0.1"])
        assert code == 0
        r = rec["results"]
        assert r["secure_possible"] is True
        assert r["channel_consistent"] is True
        assert r["reconstructed_pauli"] == pytest.approx([0.85, 0.05, 0.05, 0.05], abs=1e-12)

    def test_two_basis_boundary(self, capsys):
        code, rec, _ = run_json(capsys, ["qber", "--ex", "0.25", "--ez", "0.25"])
        assert code == 0
        assert rec["results"]["secure_possible"] is False
        assert rec["results"]["margin"] == 0.0

    def test_inconsistent_rates_are_reported_not_fatal(self, capsys):
        code, rec, _ = run_json(capsys, ["qber", "--ex", "0.6", "--ez", "0", "--ey", "0"])
        assert code == 0
        assert rec["results"]["channel_consistent"] is False
        assert rec["results"]["regime_warning"] is True

    def test_assumed_p2_shifts_the_threshold(self, capsys):
        code, rec, _ = run_json(
            capsys, ["qber", "--ex", "0.3", "--ez", "0.25", "--assumed-p2", "0.1"]
        )
        assert code == 0
        assert rec["results"]["threshold"] == 0.6
        assert rec["results"]["secure_possible"] is True

    def test_assumed_p2_conflicts_with_three_bases(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["qber", "--ex", "0.1", "--ez", "0.1", "--ey", "0.1", "--assumed-p2", "0.1"],
        )
        assert code == 1

    def test_rate_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, ["qber", "--ex", "1.5", "--ez", "0.1"])
        assert code == 1


class TestMaxDistance:
    def test_fiber_single_photon(self, capsys):
        code, rec, _ = run_json(
            capsys, ["max-distance", "fiber", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01"]
        )
        assert code == 0
        assert math.isclose(rec["results"]["d_max_km"], 469.54536691549816, rel_tol=1e-12)
        assert rec["results"]["method"] == "closed-form"

    def test_an_unbounded_distance_prints_as_none_and_an_empty_cell(self, capsys):
        argv = ["max-distance", "fiber", "--mub", "2", "--y0", "0", "--e-det", "0.01",
                "--no-timestamp"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert "d_max_km        none\n" in out
        code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["d_max_km"], cells["status"]) == ("", "unbounded")

    def test_a_required_omega_at_or_above_1_is_the_infeasible_reason(self, capsys):
        # Y0 = 0.5 puts gamma_min at 1/3, so the single-photon source needs
        # a channel transmissivity omega = gamma_min / eta_eff = 10/9.
        code, rec, _ = run_json(
            capsys,
            [
                "max-distance", "fiber", "--mub", "2", "--y0", "0.5", "--e-det", "0",
                "--eta-eff", "0.3",
            ],
        )
        assert code == 2
        results = rec["results"]
        assert (results["status"], results["d_max_km"]) == ("infeasible", 0.0)
        assert (results["omega"], results["omega_prime"]) == (1.1111111111111112, None)
        assert results["infeasible_reason"] == (
            "required channel transmissivity omega=1.1111111111111112 is at or above 1; "
            "even a lossless channel cannot bring the QBER under the threshold"
        )

    @pytest.mark.parametrize("source", [[], ["--mu", "0.5"]], ids=["single-photon", "attenuated"])
    def test_an_infinite_omega_is_null_in_strict_json(self, capsys, source):
        # eta_eff = 5e-324 needs omega = inf on both routes (eta_eff * mu
        # rounds to 0.0 on the attenuated one): null, as omega_prime.
        argv = ["max-distance", "fiber", "--mub", "2", "--y0", "1e-6", "--e-det", "0.01",
                "--eta-eff", "5e-324", *source, "--format", "json", "--no-timestamp"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (2, "")

        def refuse(token):
            raise AssertionError(f"not JSON: {token}")

        rec = json.loads(out, parse_constant=refuse)
        jsonschema.validate(rec, result_record_schema())
        results = rec["results"]
        assert (results["omega"], results["omega_prime"], results["status"]) == (
            None, None, "infeasible"
        )
        assert "omega=inf is at or above 1" in results["infeasible_reason"]

    def test_fiber_attenuated(self, capsys):
        code, rec, _ = run_json(
            capsys,
            [
                "max-distance", "fiber", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--mu", "0.3",
            ],
        )
        assert code == 0
        assert math.isclose(rec["results"]["d_max_km"], 438.7877935306577, rel_tol=1e-12)

    def test_fiber_multiphoton_uses_bisection(self, capsys):
        code, rec, _ = run_json(
            capsys,
            ["max-distance", "fiber", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01", "--k", "2"],
        )
        assert code == 0
        assert rec["results"]["method"] == "bisection"
        g2 = 1e-8 / (1 + 1e-8 - 0.04)
        expected = -10.0 / 0.17 * math.log10(1.0 - math.sqrt(1.0 - g2))
        assert math.isclose(rec["results"]["d_max_km"], expected, rel_tol=1e-8)

    def test_deepspace(self, capsys):
        code, rec, _ = run_json(
            capsys,
            [
                "max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
                "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5",
            ],
        )
        assert code == 0
        assert math.isclose(rec["results"]["d_max_km"], 77352748.39061429, rel_tol=1e-12)

    def test_deepspace_curvature_is_not_ignored(self, capsys):
        argv = [
            "max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
            "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5",
        ]
        code, rec, _ = run_json(capsys, argv + ["--curvature=-1e6"])
        assert code == 0
        assert rec["results"]["method"] == "bisection"
        assert rec["results"]["d_max_km"] < 77352748.39061429 / 10.0
        code, _, err = run_cli(capsys, argv + ["--curvature", "1e6"])
        assert code == 3
        assert "numeric failure" in err

    def test_deepspace_needs_beam_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, ["max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01"]
        )
        assert code == 1
        assert "--w0" in err

    def test_satellite(self, capsys):
        code, rec, _ = run_json(
            capsys,
            [
                "max-distance", "satellite", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--eta-eff", "0.5", "--w0", "0.1", "--wavelength", "8e-7", "--aperture", "0.5",
                "--zenith", "1.0",
            ],
        )
        assert code == 0
        assert math.isclose(rec["results"]["d_max_km"], 1865000.9222377741, rel_tol=1e-8)
        assert math.isclose(rec["results"]["eta_atmosphere"], 0.9397819277477991, rel_tol=1e-13)

    def test_k_and_mu_are_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "max-distance", "fiber", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--k", "2", "--mu", "0.3",
            ],
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_infeasible_misalignment_exits_2_with_a_record(self, capsys):
        code, rec, _ = run_json(
            capsys, ["max-distance", "fiber", "--mub", "2", "--y0", "1e-8", "--e-det", "0.3"]
        )
        assert code == 2
        assert rec["results"]["status"] == "infeasible"
        assert "two-basis" in rec["results"]["infeasible_reason"]

    def test_bracket_flags_go_together(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25", "--d-lo", "1.0",
            ],
        )
        assert code == 1

    def test_bad_bracket_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25",
                "--d-lo", "-1.0", "--d-hi", "10.0",
            ],
        )
        assert code == 1
        assert "solver" in err

    @pytest.mark.parametrize("kind", ["freespace", "deepspace", "satellite"])
    @pytest.mark.parametrize(
        "w0, wavelength, field",
        [("1e-200", "8e-7", "w0_m"), ("1e-13", "1e300", "wavelength_m")],
    )
    def test_a_rayleigh_range_that_rounds_to_zero_is_an_input_error(
        self, capsys, kind, w0, wavelength, field
    ):
        code, out, err = run_cli(
            capsys,
            [
                "max-distance", kind, "--mub", "2", "--y0", "1e-6", "--e-det", "0.01",
                "--w0", w0, "--wavelength", wavelength, "--aperture", "0.5",
            ],
        )
        path = "link" if kind == "deepspace" else "link.beam"
        assert (code, out) == (1, "")
        assert err.startswith(f"error: scenario field {path}.{field}: {field}=")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "d_lo, d_hi, code, status",
        [("1", "2", 0, "feasible-everywhere"), ("400", "500", 2, "infeasible")],
    )
    def test_a_fiber_bracket_clips_the_closed_form(self, capsys, d_lo, d_hi, code, status):
        argv = ["max-distance", "fiber", "--mub", "2", "--y0", "1e-6", "--e-det", "0.01"]
        got, rec, _ = run_json(capsys, argv + ["--d-lo", d_lo, "--d-hi", d_hi])
        results = rec["results"]
        assert (got, results["method"], results["status"]) == (code, "closed-form", status)
        assert results["d_max_km"] == (float(d_hi) if code == 0 else 0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            # A finite Rayleigh range: only the closed form overflows.
            ["deepspace", "--w0", "1e150", "--wavelength", "1e-6", "--aperture", "1e150"],
        ],
        ids=["deepspace-w0-aperture"],
    )
    def test_an_overflowing_closed_form_is_unbounded(self, capsys, argv):
        code, rec, _ = run_json(
            capsys, ["max-distance", *argv, "--mub", "2", "--y0", "1e-6", "--e-det", "0.01"]
        )
        results = rec["results"]
        assert (code, results["method"], results["status"]) == (0, "closed-form", "unbounded")
        assert (results["d_max_km"], results["feasible"]) == (None, True)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["fiber", "--alpha", "5e-324"], "link.alpha_db_per_km"),
            (["deepspace", "--w0", "1", "--wavelength", "1e-320", "--aperture", "1"],
             "link.wavelength_m"),
            (["satellite", "--w0", "1e154", "--wavelength", "1e-6", "--aperture", "1"],
             "link.beam.w0_m"),
        ],
        ids=["fiber", "deepspace-wavelength", "satellite-w0"],
    )
    def test_an_overflowing_link_constant_is_an_input_error(self, capsys, argv, field):
        # Each was accepted once. The fiber and the deepspace beam were
        # unbounded by the k = 1 closed form and feasible everywhere by the
        # k = 2 bisection: the route decided the verdict.
        for k in ("1", "2"):
            code, out, err = run_cli(
                capsys,
                ["max-distance", *argv, "--mub", "2", "--y0", "1e-6", "--e-det", "0.01", "--k", k],
            )
            assert (code, out) == (1, "")
            assert err.startswith(f"error: scenario field {field}: ")
            assert err.rstrip().endswith("overflows a float")

    @pytest.mark.parametrize(
        "model, flag, value",
        [
            ("deepspace", "--alpha", "0.2"),
            ("fiber", "--w0", "0.05"),
            ("fiber", "--wavelength", "8e-7"),
            ("fiber", "--aperture", "0.25"),
            ("fiber", "--curvature", "5e4"),
            ("deepspace", "--alpha0", "0.01"),
            ("satellite", "--scale-height", "5"),
            ("deepspace", "--altitude", "1"),
            ("freespace", "--zenith-angle", "0.3"),
            ("deepspace", "--eta-zenith", "0.9"),
        ],
    )
    def test_a_flag_of_another_model_is_an_input_error(self, capsys, model, flag, value):
        argv = ["max-distance", model, "--mub", "2", "--y0", "1e-8", "--e-det", "0.01"]
        if model != "fiber":
            argv += ["--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25"]
        assert run_cli(capsys, argv)[0] == 0
        code, out, err = run_cli(capsys, argv + [flag, value])
        assert (code, out) == (1, "")
        assert err == f"error: the {model} model does not take {flag}\n"

    def test_a_negative_curvature_may_be_its_own_token(self, capsys):
        argv = [
            "max-distance", "deepspace", "--mub", "3", "--y0", "1e-8", "--e-det", "0.01",
            "--w0", "2.0", "--wavelength", "8e-7", "--aperture", "0.5",
        ]
        joined = run_cli(capsys, argv + ["--curvature=-1e6", "--format", "json", "--no-timestamp"])
        spaced = run_cli(capsys, argv + ["--curvature", "-1e6", "--format", "json", "--no-timestamp"])
        assert spaced == joined
        assert joined[0] == 0
        code, out, err = run_cli(capsys, argv + ["--curvature", "--format", "json"])
        assert (code, out) == (2, "")
        assert "--curvature: expected one argument" in err

    def test_focused_beam_is_a_numeric_failure(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
                "--w0", "0.2", "--wavelength", "1e-6", "--aperture", "0.1",
                "--curvature", "1e4",
            ],
        )
        assert code == 3
        assert "numeric failure" in err


_FIBER = ["max-distance", "fiber", "--mub", "2", "--y0", "1e-6", "--e-det", "0.01"]
_BEAM = ["--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25"]
_DEEPSPACE = ["max-distance", "deepspace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01", *_BEAM]
_FREESPACE = ["max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01", *_BEAM]
_SATELLITE = ["max-distance", "satellite", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01", *_BEAM]
_SWEEP = ["sweep", "SCENARIO", "--param", "y0", "--points", "3", "--scale", "linear"]
# Every float-valued option but --curvature (a negative curvature is a
# valid input, tested above), after the arguments its command needs.
NEGATIVE_VALUE_CASES = [
    (["thresholds", "--e-det", "0.01"], "--y0"),
    (["thresholds", "--y0", "1e-6"], "--e-det"),
    (["thresholds", "--y0", "1e-6", "--e-det", "0.01"], "--eta-eff"),
    (["qber", "--ez", "0.1"], "--ex"),
    (["qber", "--ex", "0.1"], "--ez"),
    (["qber", "--ex", "0.1", "--ez", "0.1"], "--ey"),
    (["qber", "--ex", "0.1", "--ez", "0.1"], "--assumed-p2"),
    (_FIBER, "--y0"),
    (_FIBER, "--e-det"),
    (_FIBER, "--eta-eff"),
    (_FIBER, "--mu"),
    (_FIBER, "--alpha"),
    (_DEEPSPACE, "--w0"),
    (_DEEPSPACE, "--wavelength"),
    (_DEEPSPACE, "--aperture"),
    (_FREESPACE, "--alpha0"),
    (_FREESPACE, "--scale-height"),
    (_FREESPACE, "--altitude"),
    (_SATELLITE, "--zenith-angle"),
    (_SATELLITE, "--eta-zenith"),
    (_FIBER + ["--d-hi", "10"], "--d-lo"),
    (_FIBER + ["--d-lo", "0"], "--d-hi"),
    (_SWEEP + ["--to", "1e-4"], "--from"),
    (_SWEEP + ["--from", "1e-8"], "--to"),
]


class TestNegativeValuesWithAnExponent:
    """argparse's own pattern for a negative number has no exponent. Such a
    value must still reach its option's checks (exit 1), not end in a
    usage error (exit 2, the code for an infeasible configuration)."""

    def test_the_cases_cover_every_float_option(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "qber" in a.choices]
        floats = {
            (name, a.option_strings[0])
            for name, p in sub.choices.items()
            for a in p._actions
            if a.type is float
        }
        cases = {(argv[0], flag) for argv, flag in NEGATIVE_VALUE_CASES}
        assert floats - cases == {("max-distance", "--curvature"), ("channel", "--p")}
        assert cases <= floats

    @pytest.mark.parametrize(
        "argv, flag",
        NEGATIVE_VALUE_CASES,
        ids=[f"{argv[0]}{flag}" for argv, flag in NEGATIVE_VALUE_CASES],
    )
    def test_a_spaced_value_reads_as_the_joined_one(self, capsys, scenario_dir, argv, flag):
        scenario = str(scenario_dir / "fiber_2mub_single_photon.json")
        argv = [scenario if a == "SCENARIO" else a for a in argv] + ["--no-timestamp"]
        spaced = run_cli(capsys, argv + [flag, "-1e-3"])
        assert spaced == run_cli(capsys, argv + [f"{flag}=-1e-3"])
        code, out, err = spaced
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("position", range(4))
    def test_each_pauli_weight_may_be_negative_with_an_exponent(self, capsys, position):
        weights = ["0.5", "0.3", "0.202"]
        weights.insert(position, "-2e-3")
        code, out, err = run_cli(capsys, ["channel", "--p", *weights])
        want = f"error: p[{position}]=-0.002 outside [-0.001, 1.001]\n"
        assert (code, out, err) == (1, "", want)


class TestRepeater:
    def test_chain_scenario(self, capsys, scenario_dir):
        code, rec, _ = run_json(
            capsys, ["repeater", str(scenario_dir / "repeater_chain.json")]
        )
        assert code == 0
        assert rec["results"]["chain"]["p_max_min"] == 0.55

    def test_scenario_without_chain_is_an_input_error(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys, ["repeater", str(scenario_dir / "fiber_2mub_single_photon.json")]
        )
        assert code == 1
        assert "chain" in err


    def test_chain_qbers_must_match_the_protocol(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "protocol": {"mub_count": 3},
            "chain": {
                "links": [[0.6, 0.4, 0.0, 0.0]],
                "qbers": [{"e_x": 0.0, "e_z": 0.4}],
            },
        }
        path = tmp_path / "two_basis_qbers_three_basis_protocol.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, ["repeater", str(path)])
        assert code == 1
        assert out == ""
        assert "chain.qbers[0]" in err


class TestParserReuse:
    """main() builds its parser once per process; no value may carry
    from one call into the next."""

    FREESPACE = [
        "max-distance", "freespace", "--mub", "2", "--y0", "1e-8", "--e-det", "0.01",
        "--w0", "0.05", "--wavelength", "8e-7", "--aperture", "0.25",
        "--format", "json", "--no-timestamp",
    ]

    def test_calls_in_one_process_do_not_leak(self, capsys, scenario_dir):
        scenario = str(scenario_dir / "fiber_2mub_single_photon.json")
        code, out, _ = run_cli(capsys, ["run", scenario, "--format", "json", "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["timestamp"] is None
        code, out, _ = run_cli(capsys, ["run", scenario])
        assert code == 0
        assert out.startswith("# qkdlimits run (")

        code, out, _ = run_cli(capsys, self.FREESPACE + ["--d-lo", "0.1", "--d-hi", "10.0"])
        assert code == 0
        bracketed = json.loads(out)
        assert bracketed["inputs"]["solver"] == {"d_lo_km": 0.1, "d_hi_km": 10.0}
        assert bracketed["results"]["status"] == "feasible-everywhere"

        code, _, err = run_cli(capsys, ["qber", "--ex", "0.1"])
        assert code == 2
        assert "--ez" in err

        code, out, _ = run_cli(capsys, self.FREESPACE)
        assert code == 0
        default = json.loads(out)
        assert "solver" not in default["inputs"]
        assert default["results"]["status"] == "solved"

        code, out, _ = run_cli(capsys, ["thresholds", "--mub", "3", "--format", "json", "--no-timestamp"])
        assert list(json.loads(out)["results"]) == ["mub_3"]
        code, out, _ = run_cli(capsys, ["thresholds", "--format", "json", "--no-timestamp"])
        assert list(json.loads(out)["results"]) == ["mub_2", "mub_3"]

        assert cli._build_parser() is cli._build_parser()
        cli._build_parser.cache_clear()
        code, out, _ = run_cli(capsys, self.FREESPACE)
        assert json.loads(out) == default


class TestRun:
    def test_json_output_validates_against_the_schema(self, capsys, scenario_dir):
        code, rec, _ = run_json(
            capsys, ["run", str(scenario_dir / "fiber_2mub_single_photon.json")]
        )
        assert code == 0
        jsonschema.validate(rec, result_record_schema())
        assert rec["results"]["status"] == "solved"

    def test_repeated_runs_are_byte_identical(self, capsys, scenario_dir):
        argv = [
            "run", str(scenario_dir / "fiber_2mub_single_photon.json"),
            "--format", "json", "--no-timestamp",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_table_header_carries_a_timestamp_by_default(self, capsys, scenario_dir):
        code, out, _ = run_cli(capsys, ["run", str(scenario_dir / "fiber_2mub_single_photon.json")])
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("# qkdlimits run (")
        assert "+00:00" in first

    def test_a_hundred_thousand_unknown_keys_make_one_short_error_line(
        self, capsys, scenario_dir, tmp_path
    ):
        doc = json.loads((scenario_dir / "fiber_2mub_single_photon.json").read_text())
        doc["link"].update({f"unknown_{i:06d}": 0 for i in range(100_000)})
        path = tmp_path / "many_keys.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["run", str(path)])
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: scenario field link: unknown keys ['unknown_000000'")
        assert line.endswith("... and 99994 more]")
        assert len(line.encode()) < 300

    def test_no_timestamp_strips_it(self, capsys, scenario_dir):
        _, out, _ = run_cli(
            capsys,
            ["run", str(scenario_dir / "fiber_2mub_single_photon.json"), "--no-timestamp"],
        )
        assert "(" not in out.splitlines()[0]

    def test_malformed_scenario_reports_the_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code, _, err = run_cli(capsys, ["run", str(bad)])
        assert code == 1
        assert ":1:" in err and "not valid JSON" in err

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"schema_version": 1, "protocol": "\xff\xfe"}',  # not UTF-8
            b"[" * 100000,  # nested past the recursion limit
            b'{"schema_version": ' + b"9" * 5000 + b"}",  # past the int conversion limit
        ],
        ids=["bad-bytes", "deep-nesting", "long-literal"],
    )
    def test_unreadable_scenario_is_an_input_error(self, capsys, tmp_path, raw):
        path = tmp_path / "unreadable.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, ["run", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_a_huge_wrong_value_is_quoted_short(self, capsys, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "fiber_2mub_single_photon.json").read_text())
        doc["link"]["alpha_db_per_km"] = [0] * 10**6
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert "link.alpha_db_per_km" in err

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["run", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read" in err

    def test_infeasible_link_exits_2_and_keeps_the_chain(self, capsys, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "fiber_2mub_single_photon.json").read_text())
        doc["detector"]["e_det"] = 0.3
        doc["chain"] = json.loads((scenario_dir / "repeater_chain.json").read_text())["chain"]
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, rec, _ = run_json(capsys, ["run", str(path)])
        assert code == 2
        assert set(rec["results"]) == {"feasible", "status", "infeasible_reason", "chain"}
        assert rec["results"]["status"] == "infeasible"
        assert "two-basis" in rec["results"]["infeasible_reason"]
        assert rec["results"]["chain"]["p_max_min"] == 0.55
        code, rec, _ = run_json(capsys, ["repeater", str(path)])
        assert code == 0
        assert list(rec["results"]) == ["chain"]


class TestSweep:
    def test_csv_shape_and_values(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
                "--param", "y0", "--from", "1e-9", "--to", "1e-5", "--points", "5",
                "--scale", "log", "--format", "csv", "--no-timestamp",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,value,d_max_km,feasible"
        assert len(lines) == 6
        assert "\r" not in out
        d_values = [float(line.split(",")[2]) for line in lines[1:]]
        assert math.isclose(d_values[0], 528.3688960877622, rel_tol=1e-12)
        assert all(a > b for a, b in zip(d_values, d_values[1:]))

    def test_single_point_sweep_matches_run(self, capsys, scenario_dir):
        path = str(scenario_dir / "fiber_2mub_single_photon.json")
        _, out, _ = run_cli(
            capsys,
            [
                "sweep", path, "--param", "y0", "--from", "1e-8", "--to", "1e-8",
                "--points", "1", "--scale", "log", "--format", "csv", "--no-timestamp",
            ],
        )
        swept = float(out.splitlines()[1].split(",")[2])
        _, rec, _ = run_json(capsys, ["run", path])
        assert swept == rec["results"]["d_max_km"]

    def test_infeasible_rows_are_marked_false(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
                "--param", "e_det", "--from", "0.05", "--to", "0.45", "--points", "5",
                "--scale", "linear", "--format", "csv", "--no-timestamp",
            ],
        )
        assert code == 0
        flags = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert flags == ["true", "true", "false", "false", "false"]

    def test_sweep_is_deterministic(self, capsys, scenario_dir):
        argv = [
            "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
            "--param", "y0", "--from", "1e-9", "--to", "1e-6", "--points", "4",
            "--scale", "log", "--format", "csv", "--no-timestamp",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_unlisted_parameter_is_a_usage_error(self, capsys, scenario_dir):
        code, _, _ = run_cli(
            capsys,
            [
                "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
                "--param", "wavelength", "--from", "1e-7", "--to", "1e-6",
                "--points", "3", "--scale", "log",
            ],
        )
        assert code == 2

    def test_parameter_not_applicable_to_the_source(self, capsys, scenario_dir):
        code, _, err = run_cli(
            capsys,
            [
                "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
                "--param", "mu", "--from", "0.1", "--to", "1.0",
                "--points", "3", "--scale", "linear",
            ],
        )
        assert code == 1
        assert "mu" in err

    def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(self, scenario_dir):
        # About 225 KB of CSV, more than a pipe holds: the CLI is still
        # writing when the reader closes its end after one line.
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        argv = [
            sys.executable, "-m", "qkdlimits",
            "sweep", str(scenario_dir / "fiber_2mub_single_photon.json"),
            "--param", "y0", "--from", "1e-9", "--to", "0.5", "--points", "5000",
        ]
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert first == b"param,value,d_max_km,feasible\n"
        assert err == b""
        assert proc.returncode == 1
