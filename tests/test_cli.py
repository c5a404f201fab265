import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import psdmask
from psdmask.cli import EXIT_OK, EXIT_REFUTED, EXIT_SUITE_FAIL, EXIT_USAGE, _config_from, build_parser, main
from psdmask.linalg import matrix_from_json
from psdmask.verify import VerifyConfig, canonical_json
from test_patterns import LISTED_PAST_THE_PROBE


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "rule_k2": write("rule_k2.json", {"kind": "contiguous_partition", "params": {"k": 2}}),
        "rule_k3": write("rule_k3.json", {"kind": "contiguous_partition", "params": {"k": 3}}),
        "rule_singletons": write("rule_s.json", {"kind": "all_singletons", "params": {}}),
        "rule_chain": write("rule_chain.json", {"kind": "overlapping_chain", "params": {}}),
        "f_half": write(
            "f_half.json",
            {"variant": "scalar_multiple",
             "params": {"c": 0.5, "inner": {"variant": "identity", "params": {}}}},
        ),
        "f_neg": write(
            "f_neg.json",
            {"variant": "scalar_multiple",
             "params": {"c": -0.75, "inner": {"variant": "identity", "params": {}}}},
        ),
        "f_id": write("f_id.json", {"variant": "identity", "params": {}}),
        "disc1": write("disc1.json", {"kind": "disc", "rho": 1.0}),
        "tmp": tmp_path,
    }


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserDefaults:
    def test_config_flags_default_to_verify_config(self):
        parser = build_parser()
        for argv in (["suite"], ["verify", "--rule", "r.json", "--f", "f.json"]):
            assert _config_from(parser.parse_args(argv)) == VerifyConfig()

    @pytest.mark.parametrize("argv", [["classify", "--rule", "r.json"], ["verify", "--rule", "r.json", "--f", "f.json"],
                                      ["refute", "--rule", "r.json", "--c", "-1"], ["suite"]],
                             ids=lambda argv: argv[0])
    def test_no_subcommand_takes_a_probe_depth(self, argv, capsys):
        # every rule document is decided whatever the probe depth, so no command sets it
        assert main([*argv, "--probe-n", "5"]) == EXIT_USAGE
        assert "unrecognized arguments: --probe-n 5" in capsys.readouterr().err


class TestClassify:
    def test_singletons_constraint(self, files, capsys):
        code, out, _ = run(
            ["classify", "--rule", files["rule_singletons"], "--json"], capsys
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["regime"] == "R2-Singletons"
        assert report["constraint"] == "f(x) ≤ x on I∩ℝ≥0"

    def test_partition_interval_fractions(self, files, capsys):
        code, out, _ = run(["classify", "--rule", files["rule_k3"], "--json"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["regime"] == "R3a-PartitionAll-FiniteK"
        assert report["c_interval"] == ["-1/2", "1"]
        assert report["K"] == 3

    def test_chain_needs_identity(self, files, capsys):
        code, out, _ = run(["classify", "--rule", files["rule_chain"], "--json"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["regime"] == "R4-Overlapping"
        assert report["family"] == "identity only"

    def test_contradicting_flags_are_usage_error(self, files, capsys):
        path = files["tmp"] / "rule_bad_flags.json"
        path.write_text(json.dumps({"kind": "contiguous_partition", "params": {"k": 3},
                                    "flags": {"eventually_nonempty": True, "all_singletons": False,
                                              "covers_all_n": True, "max_block_count": 9,
                                              "has_block_ge2_at": 4, "overlap_at": None}}))
        code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "contiguous_partition" in err

    @pytest.mark.parametrize("doc", [
        {"kind": "contiguous_partition", "params": {"k": 2.7}},
        {"kind": "explicit", "params": {"patterns": [{"n": 3, "blocks": [[1, 2]]}]},
         "flags": {"eventually_nonempty": 1, "all_singletons": 0, "covers_all_n": "",
                   "max_block_count": 1.0, "has_block_ge2_at": 3, "overlap_at": None}},
        {"kind": "explicit", "params": {"patterns": [{"n": 3, "blocks": [[1, 2]]}, {"n": 3, "blocks": [[2, 3]]}]},
         "flags": {"eventually_nonempty": True, "all_singletons": False, "covers_all_n": False,
                   "max_block_count": 1, "has_block_ge2_at": 3, "overlap_at": None}},
    ], ids=["k_float", "explicit_flags_coercible", "explicit_n_listed_twice"])
    def test_coercible_rule_is_usage_error(self, files, capsys, doc):
        path = files["tmp"] / "rule_coercible.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("doc", [
        {"kind": "single_block", "params": {"block": [1, 10**9]}},
        {"kind": "explicit", "params": {"patterns": [{"n": 10**9, "blocks": [[1, 2]]}]},
         "flags": {"eventually_nonempty": True, "all_singletons": False, "covers_all_n": False,
                   "max_block_count": 1, "has_block_ge2_at": 10**9, "overlap_at": None}},
    ], ids=["single_block", "explicit"])
    def test_block_at_index_1e9_classifies_at_once(self, files, capsys, doc):
        # T_{10^9} is read off its block sizes; a set of range(10^9) alone would be tens of GB
        path = files["tmp"] / "rule_far.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["report"]["regime"] == "R3b-Subpartition-Other"
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("case", sorted(LISTED_PAST_THE_PROBE))
    def test_explicit_rule_read_past_the_probe(self, files, capsys, case):
        # a listing keeps its blocks past its largest n: each listed n and the next decide it
        doc, _, regime, error = LISTED_PAST_THE_PROBE[case]
        path = files["tmp"] / "rule_listed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
        if regime is not None:
            assert code == EXIT_OK and json.loads(out)["report"]["regime"] == regime
        else:
            assert code == EXIT_USAGE and out == "" and err == f"error: {error}\n"

    @pytest.mark.parametrize("doc, error", [
        ({"kind": "empty", "params": {"block": [1, 2]}}, "'empty' rule params has an unknown member 'block'"),
        ({"kind": "single_block", "params": {"block": [1, 2], "k": 4}},
         "'single_block' rule params has an unknown member 'k'"),
        ({"kind": "contiguous_partition", "params": {"k": 3}, "flagz": {}}, "rule has an unknown member 'flagz'"),
        ({"kind": "contiguous_partition", "params": {"K": 3}},
         "'contiguous_partition' rule params lacks the member 'k'"),
        ({"kind": "single_block", "params": {"block": 5}}, "a block must be a list of indices >= 1, got 5"),
        ({"params": {"k": 3}}, "rule lacks the member 'kind'"),
        ({"kind": "explicit", "params": {"patterns": [{"n": 3, "blocks": [[1, 2]]}]},
          "flags": {"eventually_nonempty": True, "all_singletons": False, "covers_all_n": False,
                    "max_block_count": 1, "bogus": 3}}, "flags has an unknown member 'bogus'"),
        ({"kind": "explicit", "params": {"patterns": [{"n": 3, "blocks": [[1, 2]]}]}},
         "explicit rule lacks the member 'flags'"),
        ({"kind": "explicit", "params": {"patterns": [{"blocks": [[1, 2]]}]},
          "flags": {"eventually_nonempty": True, "all_singletons": False, "covers_all_n": False,
                    "max_block_count": 1}}, "pattern lacks the member 'n'"),
    ], ids=["empty_with_block", "single_block_with_k", "misspelt_flags", "k_misspelt", "block_not_a_list",
            "no_kind", "explicit_flag_unknown", "explicit_without_flags", "pattern_without_n"])
    def test_unknown_or_missing_member_is_usage_error(self, files, capsys, doc, error):
        path = files["tmp"] / "rule_members.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {error}\n"

    def test_rule_nested_too_deeply_is_usage_error(self, files, capsys):
        path = files["tmp"] / "rule_deep.json"
        path.write_text('{"kind": "explicit", "params": {"patterns": ' + "[" * 2000 + "]" * 2000 + "}}")
        code, out, err = run(["classify", "--rule", str(path), "--json"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")


class TestVerify:
    def test_non_integer_exponent_is_usage_error(self, files, capsys):
        path = files["tmp"] / "f_z15.json"
        path.write_text(json.dumps({"variant": "herz_monomial", "params": {"alpha": 1, "m": 1.5, "k": 0}}))
        code, out, err = run(["verify", "--rule", files["rule_k2"], "--f", str(path), "--samples", "0"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "exponent m" in err

    @pytest.mark.parametrize("flag, doc", [
        ("--domain", {"kind": "disc", "rho": "2"}),
        ("--domain", {"kind": "disc", "rho": True}),
        ("--f", {"variant": "scalar_multiple", "params": {"c": True, "inner": {"variant": "identity"}}}),
        ("--f", {"variant": "herz_monomial", "params": {"alpha": "2", "m": 1, "k": 0}}),
    ], ids=["rho_string", "rho_bool", "c_bool", "alpha_string"])
    def test_real_of_the_wrong_type_is_usage_error(self, files, capsys, flag, doc):
        path = files["tmp"] / "coercible.json"
        path.write_text(json.dumps(doc))
        argv = {"--rule": files["rule_k2"], "--f": files["f_half"], "--domain": files["disc1"], flag: str(path)}
        code, out, err = run(["verify", *(x for pair in argv.items() for x in pair), "--samples", "0"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "must be a number" in err

    @pytest.mark.parametrize("flag, doc, error", [
        ("--f", {"variant": "herz_series", "params": {"coeffs": [[5, 0, 1.0]], "max_deg": 3}},
         "'herz_series' params has an unknown member 'max_deg'"),
        ("--f", {"variant": "herz_monomial", "params": {"alpha": 1, "m": 1}},
         "'herz_monomial' params lacks the member 'k'"),
        ("--f", {"variant": "identity", "parms": {}}, "function has an unknown member 'parms'"),
        ("--domain", {"kind": "disc", "rho": 1, "radius": 2}, "domain has an unknown member 'radius'"),
        ("--domain", {"kind": "disc"}, "domain lacks the member 'rho'"),
    ], ids=["series_max_deg", "monomial_without_k", "function_parms", "domain_radius", "domain_without_rho"])
    def test_unknown_or_missing_member_is_usage_error(self, files, capsys, flag, doc, error):
        path = files["tmp"] / "members.json"
        path.write_text(json.dumps(doc))
        argv = {"--rule": files["rule_k2"], "--f": files["f_half"], "--domain": files["disc1"], flag: str(path)}
        code, out, err = run(["verify", *(x for pair in argv.items() for x in pair), "--samples", "0"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {error}\n"

    def test_f_nested_too_deeply_is_usage_error(self, files, capsys):
        path = files["tmp"] / "f_deep.json"
        level = '{"variant": "scalar_multiple", "params": {"c": 0.5, "inner": '
        path.write_text(level * 600 + '{"variant": "identity", "params": {}}' + "}}" * 600)
        code, out, err = run(["verify", "--rule", files["rule_k2"], "--f", str(path), "--samples", "0"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")

    def test_preserved_exit_zero(self, files, capsys):
        code, _, _ = run(
            ["verify", "--rule", files["rule_k2"], "--f", files["f_half"],
             "--domain", files["disc1"], "--samples", "30", "--max-n", "5"],
            capsys,
        )
        assert code == EXIT_OK

    def test_refuted_exit_three(self, files, capsys):
        code, out, _ = run(
            ["verify", "--rule", files["rule_k3"], "--f", files["f_neg"],
             "--domain", files["disc1"], "--samples", "30", "--json"],
            capsys,
        )
        assert code == EXIT_REFUTED
        report = json.loads(out)["report"]
        assert report["outcome"] == "Refuted"
        ce = report["counterexample"]
        assert ce["provenance"] == "all_ones"
        matrix = matrix_from_json(ce["matrix"])
        assert matrix.shape == (3, 3)

    def test_identity_always_passes(self, files, capsys):
        code, _, _ = run(
            ["verify", "--rule", files["rule_chain"], "--f", files["f_id"],
             "--domain", files["disc1"], "--samples", "20", "--max-n", "5"],
            capsys,
        )
        assert code == EXIT_OK

    def test_bad_input_exit_two(self, files, capsys):
        code, _, err = run(
            ["verify", "--rule", str(files["tmp"] / "missing.json"), "--f", files["f_id"]],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_reports_byte_identical_modulo_timestamp(self, files, capsys):
        argv = ["verify", "--rule", files["rule_k3"], "--f", files["f_neg"],
                "--domain", files["disc1"], "--samples", "25", "--seed", "11", "--json"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        body1 = json.loads(out1)["report"]
        body2 = json.loads(out2)["report"]
        assert canonical_json(body1) == canonical_json(body2)
        assert json.loads(out1)["timestamp"] != ""

    def test_max_n_above_eig_cap_is_usage_error(self, files, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("verification started")

        monkeypatch.setattr("psdmask.cli.verify_preservation", never)
        code, out, err = run(
            ["verify", "--rule", files["rule_k2"], "--f", files["f_half"],
             "--domain", files["disc1"], "--max-n", "65"],
            capsys,
        )
        assert code == EXIT_USAGE and out == ""
        assert "64" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, files, capsys, monkeypatch, tol):
        # nan used to fail every check (Refuted at n = 1) and inf to pass every one
        def never(*args, **kwargs):
            raise AssertionError("verification started")

        monkeypatch.setattr("psdmask.cli.verify_preservation", never)
        code, out, err = run(
            ["verify", "--rule", files["rule_k3"], "--f", files["f_half"],
             "--domain", files["disc1"], "--samples", "10", "--tol", tol],
            capsys,
        )
        assert code == EXIT_USAGE and out == ""
        assert "tol must be a finite number" in err

    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "summary"])
    def test_non_finite_report_is_usage_error(self, files, capsys, flags):
        # z^400 overflows on disc(inf): the library's verdict carries min_eig NaN, which JSON cannot
        tmp = files["tmp"]
        (tmp / "z400.json").write_text(json.dumps({"variant": "herz_monomial",
                                                   "params": {"alpha": 1, "m": 400, "k": 0}}))
        (tmp / "empty.json").write_text(json.dumps({"kind": "empty", "params": {}}))
        (tmp / "disc_inf.json").write_text(json.dumps({"kind": "disc", "rho": "inf"}))
        out_file = tmp / "report.json"
        code, out, err = run(
            ["verify", "--rule", str(tmp / "empty.json"), "--f", str(tmp / "z400.json"),
             "--domain", str(tmp / "disc_inf.json"), "--out", str(out_file), *flags],
            capsys,
        )
        assert code == EXIT_USAGE and out == ""
        assert "error" in err and "NaN" not in out
        assert not out_file.exists()


class TestRefute:
    def test_outside_scalar(self, files, tmp_path, capsys):
        dom = tmp_path / "dinf.json"
        dom.write_text(json.dumps({"kind": "disc", "rho": "inf"}))
        code, out, _ = run(
            ["refute", "--rule", files["rule_k3"], "--c=-11/20",
             "--domain", str(dom), "--x", "1.0", "--json"],
            capsys,
        )
        assert code == EXIT_REFUTED
        report = json.loads(out)["report"]
        assert report["counterexample"]["min_eig"] == pytest.approx(-0.1, abs=1e-10)

    def test_inside_scalar_is_usage_error(self, files, capsys):
        code, _, err = run(
            ["refute", "--rule", files["rule_k3"], "--c=-1/2", "--domain", files["disc1"]],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "inside" in err


    def test_block_count_above_the_eigensolver_cap_is_usage_error(self, files, capsys):
        path = files["tmp"] / "rule_k65.json"
        path.write_text(json.dumps({"kind": "contiguous_partition", "params": {"k": 65}}))
        code, out, err = run(["refute", "--rule", str(path), "--c", "2"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "dimension 65 exceeds the eigensolver cap 64" in err

    def test_unbounded_block_count_is_usage_error(self, files, capsys):
        code, out, err = run(["refute", "--rule", files["rule_singletons"], "--c", "2"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: the rule must declare a finite max block count\n"

    def test_zero_x_is_usage_error(self, files, capsys):
        code, out, err = run(
            ["refute", "--rule", files["rule_k3"], "--c=-1", "--x", "0", "--domain", files["disc1"]],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "x=0.0" in err and out == ""


class TestWitness:
    def test_all_ones(self, files, capsys):
        code, out, _ = run(
            ["witness", "all_ones", "--x", "1.0", "--n", "4",
             "--domain", files["disc1"], "--json"],
            capsys,
        )
        # x = 1.0 sits on the open boundary of the unit disc
        assert code == EXIT_USAGE
        code, out, _ = run(
            ["witness", "all_ones", "--x", "0.9", "--n", "4",
             "--domain", files["disc1"], "--json"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        M = matrix_from_json(report["matrix"])
        assert np.array_equal(M, 0.9 * np.ones((4, 4)))
        assert report["psd"]["is_psd"]

    def test_overlap_probe_boundary(self, files, tmp_path, capsys):
        dom = tmp_path / "dinf.json"
        dom.write_text(json.dumps({"kind": "disc", "rho": "inf"}))
        code, out, _ = run(
            ["witness", "overlap_probe", "--r", "1.0", "--z", "0.5",
             "--domain", str(dom), "--json"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["psd"]["min_eig"] == pytest.approx(0.0, abs=1e-10)

    def test_matrix_size_of_the_wrong_type_is_usage_error(self, files, capsys):
        path = files["tmp"] / "m.json"
        path.write_text(json.dumps({"n": 2.5, "entries": [[1, 0.5], [0.5, 1]]}))
        code, out, err = run(["witness", "corner", "--matrix", str(path), "--eps", "0.5", "--json"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "n must be an integer" in err

    def test_round_trip_bit_identical(self, files, capsys):
        code, out, _ = run(
            ["witness", "duplicated_pair", "--w", "0.8", "--z", "0.4j",
             "--domain", files["disc1"], "--json"],
            capsys,
        )
        assert code == EXIT_OK
        entries = json.loads(out)["report"]["matrix"]
        M = matrix_from_json(entries)
        from psdmask.linalg import matrix_to_json

        assert matrix_to_json(M) == entries

    def test_rank_one_vector(self, files, capsys):
        code, out, _ = run(
            ["witness", "rank_one", "--v", "[1, 1, 1]", "--json"], capsys
        )
        assert code == EXIT_OK
        M = matrix_from_json(json.loads(out)["report"]["matrix"])
        assert np.array_equal(M, np.ones((3, 3)))

    def test_rank_one_checks_the_given_domain(self, files, capsys):
        code, out, err = run(
            ["witness", "rank_one", "--v", "[2, 2]", "--domain", files["disc1"], "--json"], capsys
        )
        assert code == EXIT_USAGE and out == ""
        assert "domain" in err
        code, out, _ = run(
            ["witness", "rank_one", "--v", "[0.5, [0, 0.5]]", "--domain", files["disc1"], "--json"], capsys
        )
        assert code == EXIT_OK
        M = matrix_from_json(json.loads(out)["report"]["matrix"])
        assert np.array_equal(M, [[0.25, -0.25j], [0.25j, 0.25]])

    def test_tail_gram(self, files, capsys):
        code, out, _ = run(
            ["witness", "tail_gram", "--w", "0.4", "--t", "0.8",
             "--domain", files["disc1"], "--json"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["report"]["psd"]["is_psd"]

    def test_tensor_blowup_and_pad(self, files, tmp_path, capsys):
        mat = tmp_path / "eye2.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, _ = run(
            ["witness", "tensor_blowup", "--m", "2", "--matrix", str(mat), "--json"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["report"]["matrix"]["n"] == 4
        code, out, _ = run(
            ["witness", "pad", "--matrix", str(mat), "--n", "3",
             "--domain", files["disc1"], "--json"],
            capsys,
        )
        assert code == EXIT_OK
        M = matrix_from_json(json.loads(out)["report"]["matrix"])
        assert np.array_equal(M, np.diag([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("name, size_flags", [("all_ones", ["--x", "0.5", "--n", "2000"]),
                                                   ("pad", ["--n", "2000"]),
                                                   ("tensor_blowup", ["--m", "1000"])])
    def test_size_above_the_eigensolver_cap_refused_before_it_is_built(self, tmp_path, capsys, name, size_flags):
        mat = tmp_path / "eye2.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}))
        tracemalloc.start()
        try:
            code, out, err = run(["witness", name, *size_flags, "--matrix", str(mat)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and out == ""
        assert "dimension 2000 exceeds the eigensolver cap 64" in err
        assert peak < 5 * 2**20  # a 2000 x 2000 complex witness alone is 64 MB

    def test_rank_one_above_the_eigensolver_cap_refused_before_it_is_built(self, capsys):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(["witness", "rank_one", "--v", json.dumps([0.5] * 3000)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE and out == ""
        assert "dimension 3000 exceeds the eigensolver cap 64" in err
        assert peak < 5 * 2**20  # a 3000 x 3000 complex witness alone is 144 MB

    def test_corner_above_the_eigensolver_cap_is_usage_error(self, tmp_path, capsys):
        mat = tmp_path / "flat64.json"  # PSD with positive entries: only its size is refused
        mat.write_text(json.dumps({"n": 64, "entries": np.full((64, 64), 0.01).tolist()}))
        code, out, err = run(["witness", "corner", "--matrix", str(mat)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "dimension 65 exceeds the eigensolver cap 64" in err

    @pytest.mark.parametrize("v", ["[1, [2, 0, 7]]", "[true, 0.5]", '["1", 0.5]'],
                             ids=["three_parts", "bool", "string"])
    def test_vector_entry_that_is_not_a_cell_is_usage_error(self, capsys, v):
        # an entry is read as a matrix cell: a number or a pair of numbers
        code, out, err = run(["witness", "rank_one", "--v", v], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("v", ["5", '"ab"', "{}", "null", "abc"],
                             ids=["number", "string", "object", "null", "not_json"])
    def test_vector_that_is_not_a_list_is_usage_error(self, capsys, v):
        # a string would be read one character at a time, and an object as an empty vector
        code, out, err = run(["witness", "rank_one", "--v", v], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --v must be a JSON list of cells, got {v!r}\n"

    @pytest.mark.parametrize("name, flag, text", [("duplicated_pair", "--w", "abc"), ("tail_gram", "--w", "0.5x"),
                                                   ("overlap_probe", "--z", "inf")])
    def test_complex_flag_that_does_not_parse_is_usage_error(self, tmp_path, capsys, name, flag, text):
        code, out, err = run(self._argv(tmp_path, name, {**self.KIND_FLAGS[name], flag: text}), capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {flag} must be a complex number such as 0.3+0.4i, got {text!r}\n"

    def test_complex_flag_written_with_i(self, capsys):
        code, out, _ = run(["witness", "duplicated_pair", "--w", "0.3+0.4i", "--z", "0.25", "--json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["report"]["params"]["w"] == [0.3, 0.4]

    def test_vector_of_real_and_complex_cells(self, capsys):
        code, out, _ = run(["witness", "rank_one", "--v", "[0.5, [0, 0.5]]", "--json"], capsys)
        assert code == EXIT_OK
        M = matrix_from_json(json.loads(out)["report"]["matrix"])
        assert np.array_equal(M, np.outer([0.5, 0.5j], np.conj([0.5, 0.5j])))

    @pytest.mark.parametrize("doc, error", [
        ({"n": 2, "entries": [[0.5, 0.4], [0.4, 0.5]], "hermitian": True}, "matrix has an unknown member 'hermitian'"),
        ({"n": 2}, "matrix lacks the member 'entries'"),
    ], ids=["unknown", "missing"])
    def test_matrix_member_is_usage_error(self, tmp_path, capsys, doc, error):
        mat = tmp_path / "A.json"
        mat.write_text(json.dumps(doc))
        code, out, err = run(["witness", "corner", "--matrix", str(mat)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {error}\n"

    def test_corner_auto(self, files, tmp_path, capsys):
        dom = tmp_path / "pos.json"
        dom.write_text(json.dumps({"kind": "open_pos", "rho": 1.0}))
        mat = tmp_path / "A.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[0.5, 0.4], [0.4, 0.5]]}))
        code, out, _ = run(
            ["witness", "corner", "--matrix", str(mat), "--domain", str(dom), "--json"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["psd"]["is_psd"]
        assert report["params"]["eps"] > 0

    # each kind's full flags; "MATRIX" stands for a file of a 2 x 2 PSD matrix with positive entries
    KIND_FLAGS = {
        "all_ones": {"--x": "0.5", "--n": "3"},
        "rank_one": {"--v": "[0.5, 0.5]"},
        "duplicated_pair": {"--w": "0.5", "--z": "0.25"},
        "overlap_probe": {"--r": "0.5", "--z": "0.25"},
        "tail_gram": {"--w": "0.4", "--t": "0.8"},
        "tensor_blowup": {"--m": "2", "--matrix": "MATRIX"},
        "pad": {"--matrix": "MATRIX", "--n": "3"},
        "corner": {"--matrix": "MATRIX"},
    }

    def _argv(self, tmp_path, name, flags):
        mat = tmp_path / "A.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[0.5, 0.4], [0.4, 0.5]]}))
        return ["witness", name, *[a for f, v in flags.items() for a in (f, str(mat) if v == "MATRIX" else v)]]

    @pytest.mark.parametrize("name", list(KIND_FLAGS))
    def test_each_kind_runs_with_its_flags(self, tmp_path, capsys, name):
        code, out, err = run(self._argv(tmp_path, name, self.KIND_FLAGS[name]), capsys)
        assert code == EXIT_OK and err == ""

    @pytest.mark.parametrize("name, flag", [(name, flag) for name, flags in KIND_FLAGS.items() for flag in flags])
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys, name, flag):
        flags = {f: v for f, v in self.KIND_FLAGS[name].items() if f != flag}
        code, out, err = run(self._argv(tmp_path, name, flags), capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: witness {name} needs {flag}\n"

    @pytest.mark.parametrize("eps_flag", [[], ["--eps", "0.5"]])
    def test_corner_rejects_non_psd_matrix(self, tmp_path, capsys, eps_flag):
        dom = tmp_path / "pos.json"
        dom.write_text(json.dumps({"kind": "open_pos", "rho": 10.0}))
        mat = tmp_path / "A.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[1.0, 2.0], [2.0, 1.0]]}))
        code, out, err = run(
            ["witness", "corner", "--matrix", str(mat), "--domain", str(dom), *eps_flag],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "PSD" in err


class TestSuite:
    def test_suite_module_imported_on_first_use(self):
        # a fresh interpreter, so no earlier test has imported the suite
        code = ("import sys, psdmask, psdmask.cli; before = 'psdmask.suite' in sys.modules; "
                "run = psdmask.run_theorem_suite; "
                "print(before, run.__module__, psdmask.format_suite_lines.__module__)")
        src = str(pathlib.Path(psdmask.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "psdmask.suite", "psdmask.suite"]

    def test_full_suite_passes_and_writes_report(self, files, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(["suite", "--out", str(out_file)], capsys)
        assert code == EXIT_OK
        assert out.count("[PASS]") == 13
        saved = json.loads(out_file.read_text())
        assert saved["report"]["all_passed"]
        assert len(saved["report"]["criteria"]) == 13

    def test_reduced_budget_still_passes(self, files, capsys):
        code, out, _ = run(["suite", "--max-n", "3"], capsys)
        assert code == EXIT_OK

    def test_one_dimension_budget_passes(self, files, capsys):
        # criterion 11's 2 x 2 witness keeps its own budget
        code, out, _ = run(["suite", "--max-n", "1"], capsys)
        assert code == EXIT_OK, out

    def test_zero_tolerance_documents_boundary_failures(self, files, capsys):
        code, out, _ = run(["suite", "--tol", "0"], capsys)
        assert code == EXIT_SUITE_FAIL
        assert "[FAIL]" in out
