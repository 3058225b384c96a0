"""Tests for the command-line front end.

Each test drives main() with an argv list and inspects the captured output
and exit code; file output goes through tmp_path.
"""

import json

import numpy as np
import pytest

from stlattice import codebook
from stlattice.cli import build_parser, main
from stlattice.lattice import WeightBasis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZoo:
    def test_one_row_per_family(self, capsys):
        code, out, _ = run(capsys, "zoo")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(codebook.REGISTRY)

    def test_known_rows(self, capsys):
        _, out, _ = run(capsys, "zoo")
        rows = {line.split()[0]: line for line in out.strip().splitlines()}
        assert "k'=1" in rows["alamouti"] and "multi_group(4)" in rows["alamouti"]
        assert "k'=5" in rows["silver"] and "conditional" in rows["silver"]
        assert "block_orthogonal(2,2,4)" in rows["mido_a4"]

    def test_matches_analyze_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "golden")
        assert code == 0
        data = json.loads(out)
        _, zoo_out, _ = run(capsys, "zoo")
        golden_row = [l for l in zoo_out.splitlines() if l.startswith("golden")][0]
        assert f"k'={data['k_prime']}" in golden_row


class TestConstruct:
    def test_alamouti_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "alamouti")
        assert code == 0
        basis = WeightBasis.from_json(out)
        assert basis.k == 4
        for got, want in zip(basis.mats, codebook.alamouti().mats):
            assert np.allclose(got, want, atol=1e-12)

    def test_golden_with_gamma_flag(self, capsys):
        code, out, _ = run(capsys, "construct", "golden", "--gamma", "i")
        assert code == 0
        basis = WeightBasis.from_json(out)
        assert basis.k == 8
        assert np.allclose(basis.mats[4], [[0, 1j], [1, 0]], atol=1e-12)

    def test_relay_with_round_count(self, capsys):
        code, out, _ = run(capsys, "construct", "mimo_relay", "--M", "3")
        assert code == 0
        basis = WeightBasis.from_json(out)
        assert basis.k == 24
        assert basis.mats[0].shape == (12, 12)

    def test_unknown_family_fails_validation(self, capsys):
        code, _, err = run(capsys, "construct", "nosuch")
        assert code == 1
        assert "unknown code family" in err

    def test_bad_gamma_fails_validation(self, capsys):
        code, _, err = run(capsys, "construct", "golden", "--gamma", "shiny")
        assert code == 1
        assert "cannot parse" in err

    def test_zero_denominator_gamma_fails_validation(self, capsys):
        # It was an internal error: "float division by zero", exit 2.
        code, out, err = run(capsys, "construct", "golden", "--gamma", "1/0")
        assert code == 1 and out == ""
        assert "cannot parse numeric value '1/0'" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code, out, _ = run(capsys, "construct", "alamouti", "--output", str(target))
        assert code == 0
        assert out == ""
        assert WeightBasis.from_json(target.read_text()).k == 4

    @pytest.mark.parametrize("target", [".", "missing/basis.json"])
    def test_unwritable_output_fails_validation(self, capsys, tmp_path, target):
        # A directory, or a file in a missing directory: each was an internal
        # error, exit 2.
        path = str(tmp_path / target)
        code, out, err = run(capsys, "construct", "golden", "--output", path)
        assert code == 1 and out == ""
        assert f"cannot write output to '{path}'" in err

    @pytest.mark.parametrize("gamma", ["i", "0"])
    def test_mido_gamma_must_be_real_and_nonzero(self, capsys, gamma):
        # i was an internal error (exit 2), and 0 numpy's "Singular matrix".
        code, out, err = run(capsys, "construct", "mido_a4", "--gamma", gamma)
        assert code == 1 and out == ""
        assert "gamma must be a nonzero real number" in err


class TestConstructAnalyzeRoundTrip:
    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_file_analyzes_like_the_family(self, capsys, tmp_path, name):
        target = tmp_path / f"{name}.json"
        assert run(capsys, "construct", name, "--output", str(target))[0] == 0
        code, from_file, _ = run(capsys, "analyze", str(target))
        assert code == 0
        assert from_file == run(capsys, "analyze", name)[1]


class TestLattice:
    def test_alamouti_figures(self, capsys):
        code, out, _ = run(capsys, "lattice", "alamouti")
        assert code == 0
        data = json.loads(out)
        assert data["volume"] == pytest.approx(4.0, abs=1e-9)
        assert data["min_det_est"] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(data["gram"], 2 * np.eye(4), atol=1e-9)

    def test_reads_basis_from_file(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        run(capsys, "construct", "alamouti", "--output", str(target))
        code, out, _ = run(capsys, "lattice", str(target))
        assert code == 0
        assert json.loads(out)["volume" ] == pytest.approx(4.0, abs=1e-9)

    def test_missing_source_names_the_known_families(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run(capsys, "lattice", str(missing))
        assert code == 1
        assert f"'{missing}' is neither a basis JSON file nor a known family" in err
        assert "alamouti" in err

    def test_degenerate_span_is_a_clean_error(self, capsys):
        code, _, err = run(capsys, "lattice", "iterated")
        assert code == 1
        assert "degenerate" in err

    def test_unreadable_source_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "lattice", str(bad))
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"mats": [[[["1", 0]]]]}',
            '{"mats": [[[[null, 0]]]]}',
            '{"mats": 5}',
        ],
        ids=["top-level list", "string entry", "null entry", "mats not a list"],
    )
    def test_malformed_basis_file_fails_validation(self, capsys, tmp_path, text):
        # Each raised a TypeError: "internal error", exit 2.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read basis from '{bad}': ")

    @pytest.mark.parametrize("scale, figure", [(1e20, "eta"), (1e40, "volume"), (1e-80, "volume")])
    def test_figures_out_of_the_float_range_fail_validation(self, capsys, tmp_path, scale, figure):
        # Each printed "internal error" and exited 2.  Both volumes are
        # refused where the profile makes them, 1e40's before np.exp and
        # 1e-80's, a 0.0, after it.
        path = tmp_path / "scaled.json"
        basis = WeightBasis("scaled", list(codebook.build("golden").mats * scale))
        path.write_text(basis.to_json())
        code, out, err = run(capsys, "lattice", str(path), "--bound", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and figure in err

    def test_slack_out_of_the_float_range_fails_validation(self, capsys, tmp_path):
        # {s I, s iI} at s = 1e150 has a finite volume, but the |det|^2
        # slack of its box, 1e-12 N^4, overflowed a Python float power:
        # "internal error", exit 2.
        path = tmp_path / "huge.json"
        path.write_text(WeightBasis("huge", [1e150 * np.eye(2), 1e150j * np.eye(2)]).to_json())
        code, out, err = run(capsys, "lattice", str(path), "--bound", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "out of the float range" in err
        assert err.count("\n") == 1

    def test_gram_out_of_the_float_range_fails_validation(self, capsys, tmp_path):
        # {s I, s iI} at s = 1e160: gen.T @ gen overflowed with a
        # RuntimeWarning ("internal error", exit 2, as pytest runs it), then
        # the volume was refused as exp(inf).
        path = tmp_path / "huge.json"
        path.write_text(WeightBasis("huge", [1e160 * np.eye(2), 1e160j * np.eye(2)]).to_json())
        code, out, err = run(capsys, "lattice", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: the Gram matrix ") and "out of the float range" in err
        assert err.count("\n") == 1

    def test_subnormal_volume_fails_validation(self, capsys, tmp_path):
        # Four independent unit weights of a 2x3 code times 1e-80 printed
        # "volume": 1e-320, a subnormal, and exited 0.
        units = [(0, 0, 1), (0, 0, 1j), (1, 1, 1), (0, 2, 1)]
        mats = [np.zeros((2, 3), dtype=complex) for _ in units]
        for m, (i, j, v) in zip(mats, units):
            m[i, j] = v * 1e-80
        path = tmp_path / "tiny.json"
        path.write_text(WeightBasis("tiny", mats).to_json())
        code, out, err = run(capsys, "lattice", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: the lattice volume, ") and "underflows a float" in err

    def test_box_over_the_cap_is_a_clean_error(self, capsys):
        # 3^24 - 1 vectors: the unit box of a k = 24 code is past the cap
        code, out, err = run(capsys, "lattice", "mimo_relay", "--bound", "1")
        assert (code, out) == (1, "")
        assert "exceeds the cap" in err

    def test_cap_advice_is_one_the_cli_can_follow(self, capsys):
        # No flag sets the cap, so the message must not advise raising it.
        code, _, err = run(capsys, "lattice", "mimo_relay", "--bound", "1")
        assert code == 1
        assert err.endswith("exceeds the cap of 50000000; lower the bound\n")
        assert "raise" not in err

    def test_negative_bound_fails_for_every_shape(self, capsys, tmp_path):
        rect = tmp_path / "rect.json"
        mats = [np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)]
        rect.write_text(WeightBasis("rect", mats).to_json())
        for source in ("alamouti", str(rect)):
            code, out, err = run(capsys, "lattice", source, "--bound", "-5")
            assert (code, out) == (1, "")
            assert err == "error: search bound must be nonnegative\n"


class TestAnalyze:
    def test_silver_profile_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "silver")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "conditional_multi_group"
        assert data["k_prime"] == 5
        assert data["conditioned"] == [0, 1, 2, 3]
        assert data["bounds_violations"] == []
        assert "bo_params" not in data

    def test_block_orthogonal_fields_present(self, capsys):
        _, out, _ = run(capsys, "analyze", "golden")
        data = json.loads(out)
        assert data["bo_params"] == [2, 2, 2]
        assert data["fast_decodable"] is False

    def test_family_name_is_not_shadowed_by_a_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "golden").write_text("not a basis\n")
        (tmp_path / "basis.json").write_text(codebook.build("alamouti").to_json())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "analyze", "golden")
        assert code == 0
        assert json.loads(out)["family"] == "block_orthogonal"
        code, out, _ = run(capsys, "analyze", "basis.json")
        assert code == 0
        assert json.loads(out)["family"] == "multi_group"

    def test_analyze_accepts_basis_file(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        run(capsys, "construct", "alamouti", "--output", str(target))
        code, out, _ = run(capsys, "analyze", str(target))
        assert code == 0
        assert json.loads(out)["k_prime"] == 1


class TestSimulate:
    def test_csv_shape_and_determinism(self, capsys):
        argv = (
            "simulate", "alamouti", "--snr", "0,20", "--trials", "10",
            "--alphabet", "2", "--seed", "3",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds"
        assert len(lines) == 3
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_explicit_alphabet_values(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "alamouti", "--snr", "10", "--trials", "5",
            "--alphabet=-1,1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "alphabet, message",
        [("1.5,-1.5", "alphabet values must be integers"), ("2.5", "PAM size")],
    )
    def test_non_integer_alphabet_gets_the_librarys_message(self, capsys, alphabet, message):
        # int() used to fail first, with "invalid literal for int()"
        code, out, err = run(
            capsys, "simulate", "alamouti", f"--alphabet={alphabet}", "--trials", "1",
        )
        assert code == 1 and out == ""
        assert message in err

    def test_integral_float_pam_size_is_kept(self, capsys):
        argv = ("simulate", "alamouti", "--snr", "10", "--trials", "5")
        _, out4, _ = run(capsys, *argv, "--alphabet", "4")
        code, out, _ = run(capsys, *argv, "--alphabet", "4.0")
        assert code == 0 and out == out4

    def test_rejects_unknown_decoder(self, capsys):
        code, _, err = run(
            capsys, "simulate", "alamouti", "--decoder", "turbo",
        )
        assert code == 1

    @pytest.mark.parametrize("snr", ["-inf", "nan", "0,nan"])
    def test_rejects_nan_and_minus_inf_snr(self, capsys, snr):
        code, out, err = run(
            capsys, "simulate", "alamouti", f"--snr={snr}", "--trials", "1",
        )
        assert code == 1 and out == ""
        assert "SNR values must be" in err

    def test_plus_inf_snr_is_the_noiseless_point(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "alamouti", "--snr=inf", "--trials", "2",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("inf,2,0.000000,0.000000,")

    def test_rejects_a_basis_with_no_signal_power(self, capsys, tmp_path):
        # All-zero weights load from JSON; they calibrated to sigma_n = 0 and
        # reported cer_ml 1.000000 under a 10 dB label.
        zero = [[[0.0, 0.0]] * 2] * 2
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"name": "zero", "nt": 2, "T": 2, "k": 2, "mats": [zero] * 2}))
        code, out, err = run(
            capsys, "simulate", str(path), "--decoder", "ml", "--snr", "10", "--trials", "2",
        )
        assert code == 1 and out == ""
        assert "no signal power" in err

    def test_rejects_bad_snr_list(self, capsys):
        code, _, err = run(
            capsys, "simulate", "alamouti", "--snr", "zero", "--trials", "1",
        )
        assert code == 1
        assert "cannot parse" in err


class TestVerbs:
    FLAGS = {
        "construct": {"--gamma", "--M", "--output"},
        "lattice": {"--bound", "--output"},
        "analyze": {"--seed", "--output"},
        "simulate": {
            "--snr", "--trials", "--alphabet", "--decoder", "--n-r", "--seed", "--output",
        },
        "zoo": {"--seed", "--output"},
    }

    def test_each_verb_takes_only_the_flags_it_reads(self):
        subs = next(a for a in build_parser()._actions if a.dest == "verb").choices
        flags = {
            verb: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for verb, sub in subs.items()
        }
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 16

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "alamouti"),
            ("analyze", "golden"),
            ("zoo",),
            ("simulate", "alamouti", "--trials", "1"),
        ],
    )
    def test_rejects_a_negative_seed(self, capsys, argv):
        # simulate, zoo and analyze golden printed numpy's "expected
        # non-negative integer"; analyze alamouti, which samples no R, took
        # the seed.
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed cannot be negative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", "golden", "--seed", "5"),
            ("lattice", "golden", "--tol", "3", "--seed", "5"),
            ("construct", "golden", "--tol", "1e-3"),
            ("construct", "golden", "--seed", "1"),
            ("simulate", "alamouti", "--tol", "1e-3"),
            ("simulate", "alamouti", "--tol", "-5"),
            ("construct", "mimo_relay", "--p", "7"),
            ("analyze", "golden", "--tol", "1e-9"),
            ("zoo", "--tol", "1e-9"),
            ("analyze", "golden", "--trials", "5"),
            ("zoo", "--trials", "5"),
            ("simulate", "alamouti", "--cal-samples", "10000"),
        ],
    )
    def test_flag_the_verb_does_not_read_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", "golden", "--seed", "5"),
            ("construct", "golden", "--tol", "1e-3"),
            ("simulate", "alamouti", "--tol", "-5"),
            ("zoo", "--bound", "2"),
        ],
    )
    def test_rejected_flag_shows_the_verbs_usage(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"usage: stlattice {argv[0]} ")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    @pytest.mark.parametrize("verb", [("analyze", "golden"), ("zoo",)])
    def test_classifying_verbs_read_seed(self, capsys, verb):
        # no registry verdict depends on the seed of the sampled R factors
        code, default, _ = run(capsys, *verb)
        assert code == 0
        for seed in ("0", "5"):
            assert run(capsys, *verb, "--seed", seed) == (0, default, "")

    def test_missing_verb(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_verb(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err
