"""Scenario files: parsing, execution, result records, sweeps."""

import dataclasses
import json
import math
import sys

import jsonschema
import pytest

from qkdlimits import distance
from qkdlimits import (
    FiberLink,
    GroundAtmosphere,
    InfeasibleConfigurationError,
    NonMonotonicModelError,
    ResultRecord,
    SinglePhoton,
    ValidationError,
    gamma_threshold,
    max_diffraction_distance,
    max_distance_numeric,
    max_fiber_distance,
    omega,
    parse_scenario,
    qber_attenuated,
    qber_k_photon,
    result_record_schema,
    run_scenario,
    scenario_from_file,
    sweep_scenario,
)
from qkdlimits.distance import DEFAULT_BRACKETS_KM
from qkdlimits import scenario as scenario_module
from qkdlimits.scenario import _with_param, distance_analysis

FIBER_SINGLE = {
    "schema_version": 1,
    "protocol": {"mub_count": 2},
    "source": {"kind": "single_photon"},
    "detector": {"y0": 1e-8, "e_det": 0.01, "eta_eff": 1.0},
    "link": {"kind": "fiber", "alpha_db_per_km": 0.17},
}


def make(**overrides):
    doc = json.loads(json.dumps(FIBER_SINGLE))
    doc.update(overrides)
    return doc


class TestShippedScenarios:
    def test_every_file_parses_runs_and_validates(self, scenario_dir):
        files = sorted(scenario_dir.glob("*.json"))
        assert len(files) == 10
        schema = result_record_schema()
        for path in files:
            record = run_scenario(scenario_from_file(str(path)))
            jsonschema.validate(record.to_dict(), schema)

    def test_reference_fiber_distances(self, scenario_dir):
        expected = {
            "fiber_2mub_single_photon.json": 469.54536691549816,
            "fiber_3mub_single_photon.json": 487.51774895110924,
            "fiber_2mub_attenuated_mu03.json": 438.7877935306577,
            "fiber_3mub_attenuated_mu03.json": 456.7601756334826,
            "fiber_2mub_attenuated_mu2.json": 487.2530135862059,
        }
        for name, want in expected.items():
            r = run_scenario(scenario_from_file(str(scenario_dir / name))).results
            assert r["status"] == "solved"
            assert r["method"] == "closed-form"
            assert math.isclose(r["d_max_km"], want, rel_tol=1e-12), name

    def test_rounded_reference_distances(self, scenario_dir):
        rounded = {
            "fiber_2mub_single_photon.json": 470,
            "fiber_2mub_attenuated_mu03.json": 439,
            "fiber_3mub_single_photon.json": 488,
            "fiber_3mub_attenuated_mu03.json": 457,
        }
        for name, want in rounded.items():
            r = run_scenario(scenario_from_file(str(scenario_dir / name))).results
            assert round(r["d_max_km"]) == want

    def test_deep_space_diffraction(self, scenario_dir):
        # Single-photon diffraction goes through the closed form, which
        # drops the focusing term and so sits a hair above the true crossing.
        r = run_scenario(
            scenario_from_file(str(scenario_dir / "deepspace_3mub_single_photon.json"))
        ).results
        assert r["method"] == "closed-form"
        assert math.isclose(r["d_max_km"], 77352748.39061429, rel_tol=1e-12)
        assert math.isclose(r["d_max_km"], 7.73e7, rel_tol=5e-3)

    def test_satellite_slant_path(self, scenario_dir):
        r = run_scenario(scenario_from_file(str(scenario_dir / "satellite_2mub.json"))).results
        assert r["method"] == "bisection"
        assert math.isclose(r["d_max_km"], 1865000.9222377741, rel_tol=1e-8)
        assert math.isclose(r["eta_atmosphere"], 0.9397819277477991, rel_tol=1e-13)
        assert math.isclose(r["altitude_km"], r["d_max_km"] * math.cos(1.0), rel_tol=1e-12)

    def test_ground_freespace(self, scenario_dir):
        r = run_scenario(
            scenario_from_file(str(scenario_dir / "freespace_ground_2mub.json"))
        ).results
        assert math.isclose(r["d_max_km"], 2075.875799861089, rel_tol=1e-8)

    def test_decoy_fiber(self, scenario_dir):
        r = run_scenario(scenario_from_file(str(scenario_dir / "fiber_2mub_decoy.json"))).results
        assert r["method"] == "closed-form"
        assert math.isclose(r["d_max_km"], 451.8377199786787, rel_tol=1e-12)

    def test_repeater_chain(self, scenario_dir):
        r = run_scenario(scenario_from_file(str(scenario_dir / "repeater_chain.json"))).results
        chain = r["chain"]
        assert chain["p_max_min"] == 0.55
        assert not chain["zero_capacity_certain"]
        assert math.isclose(chain["upper_bound_bits"], 0.007225546012191706, rel_tol=1e-10)
        assert chain["converse_known"] is False
        assert chain["all_links_pass"] is True
        assert chain["worst_link_index"] == 1

    def test_exact_qber_at_d_max_is_the_threshold(self, scenario_dir):
        # Cross-route check: the Gamma/Omega closed forms and the bisection
        # against the exact E = P / Y model of the detection module.
        checked = set()
        for path in sorted(scenario_dir.glob("*.json")):
            sc = scenario_from_file(str(path))
            if sc.link is None:
                continue
            r = run_scenario(sc).results
            assert r["status"] == "solved", path.name
            eta = sc.detector.eta_eff * sc.link.transmissivity(r["d_max_km"])
            src = sc.source
            if isinstance(src, SinglePhoton):
                e = qber_k_photon(eta, src.k, sc.detector).qber
            else:
                e = qber_attenuated(eta, src.mu, sc.detector).qber
            gap = e - r["qber_threshold"]
            if sc.link.kind == "diffraction":
                # The far-field envelope overestimates the crossing.
                assert 0.0 <= gap <= 1e-8, (path.name, gap)
            else:
                assert abs(gap) <= 1e-9, (path.name, gap)
            checked.add(sc.link.kind)
        assert checked == {"fiber", "diffraction", "freespace", "satellite"}

    def test_solved_records_carry_context_fields(self, scenario_dir):
        r = run_scenario(
            scenario_from_file(str(scenario_dir / "fiber_2mub_single_photon.json"))
        ).results
        assert 0.0 < r["eta_channel_at_d_max"] < 1.0
        assert r["plob_bits_per_use_at_d_max"] > 0.0
        assert "plob_note" in r
        assert r["gamma_min"] > 0.0
        assert r["omega_prime"] >= r["omega"] > 0.0


def route_reference(sc):
    """The bound of sc's link from a direct call of the public route:
    the closed form for fiber, and for diffraction of a collimated beam,
    with a k=1, attenuated or decoy source; bisection on the default
    bracket otherwise."""
    src, det, link = sc.source, sc.detector, sc.link
    g = gamma_threshold(det, sc.mub_count)
    if not (isinstance(src, SinglePhoton) and src.k != 1):
        if link.kind == "fiber":
            return max_fiber_distance(link.fiber, omega(det, src, g))
        if link.kind == "diffraction" and link.beam.curvature_m == math.inf:
            return max_diffraction_distance(link.beam, omega(det, src, g))
    return max_distance_numeric(link.transmissivity, src, det, g, *DEFAULT_BRACKETS_KM[link.kind])


class TestRoute:
    """run_scenario against route_reference, which chooses the route
    without the engine that run_scenario goes through."""

    SOURCES = [
        {"kind": "attenuated", "mu": 0.5},
        {"kind": "decoy", "intensities": [0.6, 0.1, 0.0], "probabilities": [0.5, 0.3, 0.2]},
        {"kind": "single_photon", "k": 2},
    ]

    def variants(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            if "link" not in doc:
                continue
            yield path.name, doc
            if path.name not in (
                "fiber_2mub_single_photon.json",
                "deepspace_3mub_single_photon.json",
            ):
                continue
            for source in self.SOURCES:
                yield f"{path.name} {source}", {**doc, "source": source}
            if doc["link"]["kind"] == "diffraction":
                diverging = {**doc, "link": {**doc["link"], "curvature_m": -1e6}}
                for source in [doc["source"]] + self.SOURCES:
                    yield f"{path.name} diverging {source}", {**diverging, "source": source}

    def test_run_takes_the_documented_route(self, scenario_dir):
        seen = set()
        for name, doc in self.variants(scenario_dir):
            sc = parse_scenario(doc)
            r = run_scenario(sc).results
            want = route_reference(sc)
            d_max = None if math.isinf(want.d_max_km) else want.d_max_km
            got = (r["method"], r["status"], r["d_max_km"])
            assert got == (want.method, want.status, d_max), name
            seen.add((sc.link.kind, want.method))
        assert seen == {
            ("fiber", "closed-form"),
            ("fiber", "bisection"),
            ("diffraction", "closed-form"),
            ("diffraction", "bisection"),
            ("freespace", "bisection"),
            ("satellite", "bisection"),
        }

    def test_diverging_diffraction_beam_is_bisected(self, scenario_dir):
        doc = json.loads((scenario_dir / "deepspace_3mub_single_photon.json").read_text())
        collimated = run_scenario(parse_scenario(doc)).results["d_max_km"]
        doc["link"]["curvature_m"] = -1e6
        sc = parse_scenario(doc)
        r = run_scenario(sc).results
        g = gamma_threshold(sc.detector, 3)
        want = max_distance_numeric(sc.link.transmissivity, sc.source, sc.detector, g, 1e-3, 1e12)
        assert r["method"] == "bisection"
        assert r["d_max_km"] == want.d_max_km
        # The far-field envelope bounds a collimated beam only.
        assert r["d_max_km"] < collimated / 10.0

    def test_a_fiber_run_computes_gamma_and_omega_once(self, monkeypatch):
        sc = parse_scenario(FIBER_SINGLE)
        g = gamma_threshold(sc.detector, 2)
        o = omega(sc.detector, sc.source, g)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapper

        for module in (distance, scenario_module):
            monkeypatch.setattr(module, "gamma_threshold", counted(gamma_threshold))
        monkeypatch.setattr(distance, "omega", counted(omega))
        r = run_scenario(sc).results
        assert sorted(calls) == ["gamma_threshold", "omega"]
        assert (r["gamma_min"], r["omega"], r["omega_prime"]) == (
            g.gamma_min, o.omega, o.omega_prime
        )

    def test_hopeless_misalignment_raises_the_threshold_error(self):
        sc = parse_scenario(make(detector={"y0": 1e-8, "e_det": 0.3, "eta_eff": 1.0}))
        with pytest.raises(InfeasibleConfigurationError) as want:
            gamma_threshold(sc.detector, 2)
        with pytest.raises(InfeasibleConfigurationError) as got:
            run_scenario(sc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "name", ["fiber_2mub_single_photon.json", "deepspace_3mub_single_photon.json"]
    )
    def test_a_solver_bracket_clips_the_closed_form(self, scenario_dir, name):
        doc = json.loads((scenario_dir / name).read_text())
        free = run_scenario(parse_scenario(doc)).results
        assert (free["method"], free["status"]) == ("closed-form", "solved")
        d = free["d_max_km"]
        for (lo, hi), d_max, status in (
            ((1.0, 2.0), 2.0, "feasible-everywhere"),
            ((0.5 * d, 2.0 * d), d, "solved"),
            ((2.0 * d, 4.0 * d), 0.0, "infeasible"),
        ):
            doc["solver"] = {"d_lo_km": lo, "d_hi_km": hi}
            r = run_scenario(parse_scenario(doc)).results
            got = (r["method"], r["status"], r["d_max_km"], r["feasible"])
            assert got == ("closed-form", status, d_max, status != "infeasible"), (lo, hi)
            assert ("eta_channel_at_d_max" in r) == (status == "solved")
            assert ("infeasible_reason" in r) == (status == "infeasible")

    def test_focused_diffraction_beam_is_not_monotone(self, scenario_dir):
        doc = json.loads((scenario_dir / "deepspace_3mub_single_photon.json").read_text())
        doc["link"]["curvature_m"] = 1e6
        with pytest.raises(NonMonotonicModelError):
            run_scenario(parse_scenario(doc))


def test_a_beam_whose_rayleigh_range_rounds_to_zero_names_its_field(scenario_dir):
    doc = json.loads((scenario_dir / "satellite_2mub.json").read_text())
    doc["link"]["beam"]["w0_m"] = 1e-200
    message = r"^scenario field link\.beam\.w0_m: w0_m=1e-200 is too small: "
    with pytest.raises(ValidationError, match=message):
        parse_scenario(doc)


class TestResultRecord:
    def test_round_trip(self):
        rec = ResultRecord(command="run", inputs={"a": 1}, results={"b": 2.5})
        assert ResultRecord.from_dict(rec.to_dict()) == rec

    def test_envelope_shape(self):
        d = ResultRecord(command="run", inputs={}, results={}).to_dict()
        assert set(d) == {"schema_version", "artifact", "command", "timestamp", "inputs", "results"}
        assert d["schema_version"] == 1
        assert d["artifact"]["name"] == "qkdlimits"

    def test_schema_is_draft7(self):
        schema = result_record_schema()
        assert schema["$schema"].startswith("http://json-schema.org/draft-07")
        assert set(schema["required"]) >= {"schema_version", "command", "inputs", "results"}


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(FIBER_SINGLE)
        assert sc.mub_count == 2
        assert sc.link.kind == "fiber"
        assert sc.link.fiber == FiberLink(alpha_db_per_km=0.17)
        assert sc.chain is None

    def test_a_dict_past_maxdict_keys_is_cut_to_an_ellipsis(self):
        doc = make(protocol={"mub_count": {k: i for i, k in enumerate("abcde")}})
        with pytest.raises(ValidationError) as info:
            parse_scenario(doc)
        assert str(info.value).endswith("got {'a': 0, 'b': 1, 'c': 2, 'd': 3, ...}")

    def test_missing_schema_version(self):
        doc = make()
        del doc["schema_version"]
        with pytest.raises(ValidationError, match="schema_version"):
            parse_scenario(doc)

    def test_unsupported_schema_version(self):
        with pytest.raises(ValidationError, match="schema_version"):
            parse_scenario(make(schema_version=2))

    def test_needs_link_or_chain(self):
        doc = make()
        del doc["link"]
        with pytest.raises(ValidationError, match="link, a chain, or both"):
            parse_scenario(doc)

    def test_unknown_link_kind(self):
        with pytest.raises(ValidationError, match="link.kind"):
            parse_scenario(make(link={"kind": "warp"}))

    def test_unknown_keys_are_reported_with_their_path(self):
        with pytest.raises(ValidationError, match="alpha_db_per_kmm"):
            parse_scenario(make(link={"kind": "fiber", "alpha_db_per_kmm": 0.17}))

    def test_a_few_unknown_keys_are_listed_in_full(self):
        link = {"kind": "fiber", "alpha_db_per_km": 0.17, **{k: 1 for k in "fedcba"}}
        with pytest.raises(ValidationError) as err:
            parse_scenario(make(link=link))
        assert str(err.value) == (
            "scenario field link: unknown keys ['a', 'b', 'c', 'd', 'e', 'f']"
        )

    def test_many_unknown_keys_are_counted(self):
        link = {"kind": "fiber", "alpha_db_per_km": 0.17, **{f"k{i}": 1 for i in range(7)}}
        with pytest.raises(ValidationError) as err:
            parse_scenario(make(link=link))
        assert str(err.value) == (
            "scenario field link: unknown keys "
            "['k0', 'k1', 'k2', 'k3', 'k4', 'k5', ... and 1 more]"
        )

    def test_unknown_source_kind(self):
        with pytest.raises(ValidationError, match="source"):
            parse_scenario(make(source={"kind": "entangled"}))

    def test_bad_mub_count(self):
        with pytest.raises(ValidationError):
            parse_scenario(make(protocol={"mub_count": 4}))

    def test_detector_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_scenario(
                make(detector={"y0": 1e-8, "e_det": 0.7, "eta_eff": 1.0})
            )

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValidationError, match="object"):
            parse_scenario([1, 2, 3])

    def test_chain_link_needs_four_probabilities(self):
        doc = make(chain={"links": [[0.9, 0.1, 0.0]]})
        del doc["link"]
        with pytest.raises(ValidationError):
            parse_scenario(doc)

    def test_chain_qber_count_must_match(self):
        doc = make(
            chain={
                "links": [[0.9, 0.1, 0.0, 0.0], [0.8, 0.2, 0.0, 0.0]],
                "qbers": [{"e_x": 0.1, "e_z": 0.1}],
            }
        )
        del doc["link"]
        with pytest.raises(ValidationError):
            parse_scenario(doc)

    @pytest.mark.parametrize("mub_count", [2.0, 3.0, True])
    def test_mub_count_must_be_the_integer_2_or_3(self, mub_count):
        with pytest.raises(ValidationError, match="protocol.mub_count"):
            parse_scenario(make(protocol={"mub_count": mub_count}))

    @pytest.mark.parametrize(
        "solver",
        [
            {"d_lo_km": None, "d_hi_km": 10.0},
            {"d_lo_km": 1.0, "d_hi_km": None},
            {"d_lo_km": -1.0, "d_hi_km": 10.0},
            {"d_lo_km": 1.0, "d_hi_km": float("inf")},
            {"d_lo_km": float("nan"), "d_hi_km": 10.0},
            {"d_lo_km": 10.0, "d_hi_km": 10.0},
            {"d_lo_km": 10.0, "d_hi_km": 1.0},
        ],
    )
    def test_solver_bracket_is_checked_at_parse(self, solver):
        with pytest.raises(ValidationError, match="solver"):
            parse_scenario(make(solver=solver))

    @pytest.mark.parametrize("solver, message", [
        ({"d_lo_km": -1, "d_hi_km": 10.0}, "solver.d_lo_km: d_lo_km=-1 outside [0, inf)"),
        ({"d_lo_km": 10.5, "d_hi_km": 3}, "solver.d_hi_km: d_hi_km=3 outside (10.5, inf)"),
        ({"d_lo_km": 1.0, "d_hi_km": 1.0}, "solver.d_hi_km: d_hi_km=1.0 outside (1, inf)"),
    ])
    def test_a_solver_bracket_end_is_named_by_its_path(self, solver, message):
        with pytest.raises(ValidationError) as exc:
            parse_scenario(make(solver=solver))
        assert str(exc.value) == f"scenario field {message}"

    def test_null_means_infinity_only_for_curvature(self):
        beam = {"w0_m": 2.0, "wavelength_m": 8e-7, "aperture_radius_m": 0.5}
        sc = parse_scenario(make(link={"kind": "diffraction", **beam, "curvature_m": None}))
        assert sc.link.beam.curvature_m == math.inf
        with pytest.raises(ValidationError, match="link.alpha_db_per_km"):
            parse_scenario(make(link={"kind": "fiber", "alpha_db_per_km": None}))
        with pytest.raises(ValidationError, match="link.w0_m"):
            parse_scenario(make(link={"kind": "diffraction", **beam, "w0_m": None}))

    @pytest.mark.parametrize("value", [{"b": 1, "a": [0.5, "x"]}, [0, 1, 2, 3, 4, 5], "abc", None])
    def test_short_wrong_values_are_quoted_in_full(self, value):
        decoy = {"kind": "decoy", "intensities": {"v": value}, "probabilities": []}
        # (document, the value its error quotes) for each place that quotes one.
        cases = [
            (make(link={"kind": "fiber", "alpha_db_per_km": value}), value),
            (make(detector=[value]), [value]),
            (make(source=decoy), {"v": value}),
            (make(link={"kind": value}), value),
            (make(source={"kind": "single_photon", "k": value}), value),
            (make(schema_version=value), value),
            (make(protocol={"mub_count": value}), value),
        ]
        for doc, quoted in cases:
            with pytest.raises(ValidationError) as exc:
                parse_scenario(doc)
            assert repr(quoted) in str(exc.value)

    @pytest.mark.parametrize("e_y", [None, "x", True, [0.1]])
    def test_e_y_must_be_a_number(self, e_y):
        qbers = [{"e_x": 0.1, "e_z": 0.1, "e_y": e_y}]
        doc = make(chain={"links": [[0.9, 0.1, 0.0, 0.0]], "qbers": qbers})
        with pytest.raises(ValidationError, match=r"chain.qbers\[0\].e_y"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "mub_count, qbers",
        [
            (2, [{"e_x": 0.1, "e_z": 0.1}, {"e_x": 0.1, "e_z": 0.1, "e_y": 0.1}]),
            (3, [{"e_x": 0.1, "e_z": 0.1, "e_y": 0.1}, {"e_x": 0.1, "e_z": 0.1}]),
        ],
    )
    def test_chain_qber_sets_must_match_the_protocol(self, mub_count, qbers):
        links = [[0.9, 0.1, 0.0, 0.0]] * 2
        ok = make(protocol={"mub_count": mub_count}, chain={"links": links, "qbers": qbers[:1] * 2})
        assert parse_scenario(ok).chain.qbers[0].mub_count == mub_count
        bad = make(protocol={"mub_count": mub_count}, chain={"links": links, "qbers": qbers})
        with pytest.raises(ValidationError, match=r"chain.qbers\[1\]"):
            parse_scenario(bad)

    def test_freespace_atmosphere_absent_or_null_is_the_default(self):
        beam = {"w0_m": 0.05, "wavelength_m": 8e-7, "aperture_radius_m": 0.25}
        for link in ({"kind": "freespace", "beam": beam},
                     {"kind": "freespace", "beam": beam, "atmosphere": None}):
            sc = parse_scenario(make(link=link))
            assert sc.link.atmosphere == GroundAtmosphere()
        for atm in ([], "x", 2.5):
            with pytest.raises(ValidationError, match="link.atmosphere"):
                parse_scenario(make(link={"kind": "freespace", "beam": beam, "atmosphere": atm}))


class TestScenarioFromFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            scenario_from_file(str(tmp_path / "nope.json"))

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        with pytest.raises(ValidationError, match=r":1:\d+: not valid JSON"):
            scenario_from_file(str(bad))

    def test_non_object_document(self, tmp_path):
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValidationError, match="object"):
            scenario_from_file(str(arr))


class TestSweep:
    def test_a_chain_only_scenario_has_no_link_to_analyze_or_sweep(self, scenario_dir):
        sc = scenario_from_file(str(scenario_dir / "repeater_chain.json"))
        with pytest.raises(ValidationError, match="scenario has no link to analyze"):
            distance_analysis(sc)
        with pytest.raises(ValidationError, match="sweep needs a scenario with a link"):
            sweep_scenario(sc, "y0", 1e-9, 1e-6, 3, "log")

    def test_single_point_sweep_equals_run(self):
        sc = parse_scenario(FIBER_SINGLE)
        rows = sweep_scenario(sc, "y0", 1e-8, 1e-8, 1, "log")
        full = run_scenario(sc)
        assert rows == [("y0", 1e-8, full.results["d_max_km"], True)]

    def test_log_sweep_matches_dark_count_decades(self):
        sc = parse_scenario(FIBER_SINGLE)
        rows = sweep_scenario(sc, "y0", 1e-9, 1e-5, 5, "log")
        expected = [
            528.3688960877622,
            469.54536691549816,
            410.7218398987397,
            351.8983344370246,
            293.07504452452116,
        ]
        for (param, value, d, feasible), want in zip(rows, expected):
            assert param == "y0"
            assert feasible
            assert math.isclose(d, want, rel_tol=1e-12)

    def test_infeasible_rows_are_kept(self):
        sc = parse_scenario(FIBER_SINGLE)
        rows = sweep_scenario(sc, "e_det", 0.05, 0.45, 5, "linear")
        assert [r[3] for r in rows] == [True, True, False, False, False]
        assert all(r[2] == 0.0 for r in rows if not r[3])

    def test_mu_sweep_needs_an_attenuated_source(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError, match="mu"):
            sweep_scenario(sc, "mu", 0.1, 1.0, 3, "linear")

    def test_alpha_sweep_needs_a_fiber_link(self):
        doc = make(
            link={
                "kind": "diffraction",
                "w0_m": 2.0,
                "wavelength_m": 8e-7,
                "aperture_radius_m": 0.5,
            }
        )
        with pytest.raises(ValidationError, match="alpha"):
            sweep_scenario(parse_scenario(doc), "alpha", 0.1, 0.3, 3, "linear")

    def test_alpha_sweep_rebuilds_the_link_model(self):
        # A two-photon source goes through bisection on the link's
        # transmissivity, so a stale model would show in d_max.
        sc = parse_scenario(make(source={"kind": "single_photon", "k": 2}))
        rows = sweep_scenario(sc, "alpha", 0.2, 0.2, 1, "linear")
        alone = run_scenario(
            parse_scenario(
                make(
                    source={"kind": "single_photon", "k": 2},
                    link={"kind": "fiber", "alpha_db_per_km": 0.2},
                )
            )
        )
        assert rows == [("alpha", 0.2, alone.results["d_max_km"], True)]
        assert rows[0][2] != run_scenario(sc).results["d_max_km"]

    def test_unknown_parameter(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError):
            sweep_scenario(sc, "wavelength", 1e-7, 1e-6, 3, "log")

    def test_log_scale_needs_positive_endpoints(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError):
            sweep_scenario(sc, "y0", 0.0, 1e-5, 3, "log")

    def test_point_count_must_be_positive(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError):
            sweep_scenario(sc, "y0", 1e-8, 1e-5, 0, "log")

    def test_a_bool_is_not_a_point_count(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError, match="points=True must be an integer >= 1"):
            sweep_scenario(sc, "y0", 1e-10, 1e-4, True, "log")

    def test_bad_scale_name(self):
        sc = parse_scenario(FIBER_SINGLE)
        with pytest.raises(ValidationError):
            sweep_scenario(sc, "y0", 1e-8, 1e-5, 3, "quadratic")

    @pytest.mark.parametrize("bad", ["a", None, True, math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("field", ["start", "stop"])
    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_endpoints_must_be_finite_numbers(self, bad, field, scale):
        sc = parse_scenario(FIBER_SINGLE)
        ends = {"start": 1e-9, "stop": 1e-4, field: bad}
        problem = r"(is not a number|outside \(-inf, inf\)|is beyond float range)"
        with pytest.raises(ValidationError, match=f"^{field}=.* {problem}$") as exc:
            sweep_scenario(sc, "y0", ends["start"], ends["stop"], 3, scale)
        assert exc.value.field == field


def pointwise(sc, param, values):
    """Rows and statuses of the point-by-point loop that sweep_scenario
    batches: distance_analysis at each point, infeasible Gamma flagged."""
    rows, statuses = [], []
    for v in values:
        src, det, link = _with_param(sc, param, v)
        try:
            res = distance_analysis(dataclasses.replace(sc, source=src, detector=det, link=link))
        except InfeasibleConfigurationError:
            rows.append((param, v, 0.0, False))
            statuses.append("flagged")
            continue
        d = res["d_max_km"]
        rows.append((param, v, math.inf if d is None else d, res["feasible"]))
        statuses.append(res["status"])
    return rows, statuses


def linear(start, stop, points):
    return [start + (stop - start) * i / (points - 1) for i in range(points)]


BEAM = {"w0_m": 0.05, "wavelength_m": 8e-7, "aperture_radius_m": 0.25}
FOCUSED_BEAM = {"w0_m": 0.2, "wavelength_m": 1e-6, "aperture_radius_m": 0.1, "curvature_m": 1e4}


class TestSweepBatch:
    """sweep_scenario bisects its rows as one batch; rows must equal the
    point-by-point results, and errors must be the ones that loop meets first."""

    LINKS = {
        "freespace": ({"kind": "freespace", "beam": BEAM}, (0.1, 10.0)),
        "satellite": ({"kind": "satellite", "beam": BEAM, "zenith_angle_rad": 0.5}, (10.0, 200.0)),
        "ground_atmosphere": ({"kind": "ground_atmosphere", "alpha0_per_km": 0.05}, (0.1, 5.0)),
        "fiber": ({"kind": "fiber", "alpha_db_per_km": 0.2}, (1.0, 30.0)),
    }
    SWEEPS = {
        "y0": (0.0, 0.99, "linear"),
        "e_det": (0.0, 0.3, "linear"),
        "eta_eff": (1e-5, 1.0, "log"),
        "mu": (0.01, 5.0, "log"),
        # An alpha point changes the link, so it is a batch of its own.
        "alpha": (0.01, 2.0, "log"),
    }

    @pytest.mark.parametrize("kind", sorted(LINKS))
    def test_rows_equal_point_by_point_analysis(self, kind):
        link, (lo, hi) = self.LINKS[kind]
        # A two-photon source has no closed form on fiber either.
        sources = (
            [{"kind": "single_photon", "k": 2}]
            if kind == "fiber"
            else [{"kind": "single_photon"}, {"kind": "attenuated", "mu": 0.5}]
        )
        seen = set()
        for source in sources:
            for solver in (None, {"d_lo_km": lo, "d_hi_km": hi}):
                doc = make(
                    source=source,
                    detector={"y0": 1e-4, "e_det": 0.02, "eta_eff": 0.3},
                    link=link,
                )
                if solver is not None:
                    doc["solver"] = solver
                sc = parse_scenario(doc)
                for param, (start, stop, scale) in self.SWEEPS.items():
                    if param == "mu" and source["kind"] != "attenuated":
                        continue
                    if param == "alpha" and kind != "fiber":
                        continue
                    rows = sweep_scenario(sc, param, start, stop, 25, scale)
                    expected, statuses = pointwise(sc, param, [r[1] for r in rows])
                    assert rows == expected, (source, solver, param)
                    seen.update(statuses)
        assert seen == {"solved", "infeasible", "feasible-everywhere", "flagged"}

    def test_bisection_rows_never_call_detection_probability(self, monkeypatch):
        # The engine binds each row's own gamma; the checked
        # detection_probability is for callers outside the package.
        decoy = {"kind": "decoy", "intensities": [0.5, 0.1, 0.0], "probabilities": [0.7, 0.2, 0.1]}
        scenarios = [parse_scenario(make(link=self.LINKS[k][0])) for k in ("freespace", "satellite")]
        scenarios.append(parse_scenario(make(source=decoy, link=self.LINKS["freespace"][0])))
        unpatched = [sweep_scenario(sc, "y0", 1e-9, 0.5, 13, "log") for sc in scenarios]

        def refuse(src, eta):
            raise AssertionError("detection_probability was called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qkdlimits" and hasattr(module, "detection_probability"):
                monkeypatch.setattr(module, "detection_probability", refuse)
        assert [sweep_scenario(sc, "y0", 1e-9, 0.5, 13, "log") for sc in scenarios] == unpatched
        assert all(r[3] for rows in unpatched for r in rows)

    def test_sweep_across_the_misalignment_threshold_keeps_flagged_rows(self):
        sc = parse_scenario(make(link=self.LINKS["freespace"][0]))
        rows = sweep_scenario(sc, "e_det", 0.0, 0.4, 9, "linear")
        assert [r[3] for r in rows] == [True] * 5 + [False] * 4
        assert all(r[2] == 0.0 for r in rows[5:])
        assert rows == pointwise(sc, "e_det", linear(0.0, 0.4, 9))[0]

    def test_focused_beam_past_its_waist_is_not_monotone(self):
        link = {"kind": "freespace", "beam": FOCUSED_BEAM}
        sc = parse_scenario(make(link=link, solver={"d_lo_km": 0.01, "d_hi_km": 50.0}))
        with pytest.raises(NonMonotonicModelError):
            sweep_scenario(sc, "y0", 1e-9, 1e-5, 5, "log")

    @pytest.mark.parametrize(
        "beam, param, start, stop, error",
        [
            # Bisection rows fail before a later point's detector does.
            (FOCUSED_BEAM, "eta_eff", 0.5, 1.5, NonMonotonicModelError),
            (FOCUSED_BEAM, "e_det", 0.0, 0.6, NonMonotonicModelError),
            # Flagged rows, then an invalid detector.
            (FOCUSED_BEAM, "e_det", 0.3, 0.6, ValidationError),
            # Solved rows, then an invalid detector.
            (BEAM, "eta_eff", 0.5, 1.5, ValidationError),
            (BEAM, "y0", 0.5, 1.5, ValidationError),
        ],
    )
    def test_the_first_failing_point_raises(self, beam, param, start, stop, error):
        link = {"kind": "freespace", "beam": beam}
        sc = parse_scenario(make(link=link, solver={"d_lo_km": 0.01, "d_hi_km": 50.0}))
        with pytest.raises(error) as batched:
            sweep_scenario(sc, param, start, stop, 7, "linear")
        with pytest.raises(error) as alone:
            pointwise(sc, param, linear(start, stop, 7))
        assert str(batched.value) == str(alone.value)
