import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qnetcap.channels import CqChannel, builtin, dump_channel
from qnetcap.cli import main
from qnetcap.qstate import DensityMatrix
from qnetcap.regions import HalfspaceRegion, region_from_json, save_region_json

H_BB84 = 0.6008760366928562


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_holevo_bb84(self, capsys):
        code, out, _ = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p")
        assert code == 0
        assert abs(float(out) - H_BB84) < 1e-3

    def test_classical_computational(self, capsys):
        code, out, _ = run(capsys, "capacity", "p2p-classical", "--builtin",
                           "bb84_p2p")
        assert code == 0
        assert abs(float(out) - 0.3219) < 1e-3

    def test_classical_rotated(self, capsys):
        code, out, _ = run(capsys, "capacity", "p2p-classical", "--builtin",
                           "bb84_p2p", "--povm-angle", str(-math.pi / 8))
        assert code == 0
        assert abs(float(out) - 0.3991) < 1e-3

    def test_grid_refinement_monotone(self, capsys):
        values = []
        for grid in ("5", "41"):
            code, out, _ = run(capsys, "capacity", "p2p-holevo", "--builtin",
                               "bb84_p2p", "--grid", grid)
            assert code == 0
            values.append(float(out))
        assert values[1] >= values[0] - 1e-12

    def test_out_json(self, capsys, tmp_path):
        path = tmp_path / "cap.json"
        code, out, _ = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert abs(doc["capacity"] - float(out)) < 1e-9
        assert abs(sum(doc["input_distribution"]) - 1.0) < 1e-9

    def test_missing_channel_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "capacity", "p2p-holevo", "--channel",
                           str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p", "--channel", str(tmp_path / "x.json"))
        assert code == 2
        assert "exactly one" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p", "--grid", "1")
        assert code == 2
        assert "--grid" in err

    @pytest.mark.parametrize("sub", ["p2p-holevo", "p2p-classical"])
    def test_grid_has_no_effect(self, capsys, sub):
        args = ("capacity", sub, "--builtin", "bb84_p2p")
        _, plain, plain_err = run(capsys, *args)
        code, out, err = run(capsys, *args, "--grid", "5")
        assert code == 0 and out == plain and plain_err == ""
        assert err.startswith("note: --grid has no effect") and err.count("\n") == 1

    def test_unconverged_warning(self, capsys, tmp_path):
        # |0>, |+>, |1>: the optimum drops |+>, which the iteration only
        # approaches sublinearly, so it stops at its iteration limit
        vectors = ([1, 0], [2**-0.5, 2**-0.5], [0, 1])
        ch = CqChannel((("0", "p", "1"),), {
            (x,): DensityMatrix(np.outer(v, v).astype(complex), (2,))
            for x, v in zip(("0", "p", "1"), vectors)
        })
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(dump_channel(ch)))
        code, out, err = run(capsys, "capacity", "p2p-holevo", "--channel", str(path))
        assert code == 0 and abs(float(out) - 1.0) < 1e-8
        assert err.startswith("warning: capacity iteration stopped after 20000 steps")
        assert "gap" in err and err.count("\n") == 1

    def test_scipy_optimize_not_imported(self):
        import subprocess
        import sys

        import qnetcap

        script = (
            "import sys, qnetcap.cli, qnetcap.network, qnetcap.bosonic, qnetcap.codesim\n"
            "from qnetcap.channels import builtin\n"
            "qnetcap.network.hsw_capacity(builtin('bb84_p2p'))\n"
            "ch = builtin('bb84_qmac')\n"
            "qnetcap.network.cmg_region_via_projection("
            "ch, qnetcap.network.random_cmg_distribution(ch, 2))\n"
            "qnetcap.cli.main(['region', 'cmg', '--builtin', 'bb84_qmac', '--seed', '1',"
            " '--oracle'])\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("oracle agreement: 1.000000\n")
        assert done.stdout.endswith("}\nFalse\n")


class TestRegion:
    def test_mac_uniform_pentagon(self, capsys, tmp_path):
        path = tmp_path / "pentagon.json"
        code, _, _ = run(capsys, "region", "mac", "--builtin", "bb84_qmac",
                         "--uniform", "--out", str(path))
        assert code == 0
        region = region_from_json(json.loads(path.read_text()))
        bounds = sorted(b for _, b in region.inequalities)
        assert abs(bounds[0] - H_BB84) < 1e-3
        assert abs(bounds[1] - H_BB84) < 1e-3
        assert abs(bounds[2] - 1.0) < 1e-3

    def test_mac_union_csv(self, capsys, tmp_path):
        path = tmp_path / "mac.csv"
        code, _, _ = run(capsys, "region", "mac", "--builtin", "bb84_qmac",
                         "--grid", "5", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,R1,R2"
        assert len(lines) > 10
        for line in lines[1:]:
            theta, r1, r2 = map(float, line.split(","))
            assert 0.0 <= r1 and 0.0 <= r2

    def test_vsi_pi_half_origin(self, capsys):
        code, out, _ = run(capsys, "region", "vsi", "--builtin", "theta_swap",
                           "--param", "1.5707963267948966")
        assert code == 0
        doc = json.loads(out)
        for ineq in doc["ineqs"]:
            assert ineq["b"] < 1e-6

    def test_vsi_csv(self, capsys, tmp_path):
        path = tmp_path / "vsi.csv"
        code, _, _ = run(capsys, "region", "vsi", "--builtin", "theta_swap",
                         "--param", "1.2", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("theta,R1,R2")

    def test_cmg_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "region", "cmg", "--builtin", "bb84_qmac",
                           "--seed", "1", "--oracle")
        assert code == 0
        assert "oracle agreement" in out

    def test_cmg_oracle_disagreement_exits_3(self, capsys, monkeypatch):
        import qnetcap.network as network

        real = network.cmg_regions
        seen = []

        def shrunk(ch, dist):
            # one facet pulled in by 2%: the grid sees it on few points
            direct, region = real(ch, dist)
            rows = list(region.inequalities)
            rows[-1] = (rows[-1][0], 0.98 * rows[-1][1])
            seen.append((direct, HalfspaceRegion(region.coordinate_names, rows)))
            return seen[-1]

        monkeypatch.setattr(network, "cmg_regions", shrunk)
        code, out, err = run(capsys, "region", "cmg", "--builtin", "bb84_qmac",
                             "--seed", "1", "--oracle")
        assert code == 3 and "disagree" in err
        # the reference: one contains() call per grid point
        direct, projected = seen[0]
        top = 1.05 * max(b for r in seen[0] for _, b in r.inequalities)
        axis = np.linspace(0.0, top, 50)
        agree = sum(direct.contains((x, y), tol=1e-6) == projected.contains((x, y), tol=1e-6)
                    for x in axis for y in axis)
        assert 0.999 <= agree / 2500 < 1.0
        assert out == f"oracle agreement: {agree / 2500:.6f}\n"

    def test_cmg_oracle_evaluates_terms_once(self, capsys, monkeypatch, tmp_path):
        import qnetcap.network as network

        real, builds = network.joint_state, []

        def counted(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "joint_state", counted)
        path = tmp_path / "cmg.json"
        code, out, _ = run(capsys, "region", "cmg", "--builtin", "bb84_qmac",
                           "--seed", "1", "--oracle", "--out", str(path))
        assert code == 0 and out == "oracle agreement: 1.000000\n"
        assert len(builds) == 1
        # the emitted region is the direct one
        ref = tmp_path / "direct.json"
        ch = builtin("bb84_qmac")
        save_region_json(network.cmg_region(ch, network.random_cmg_distribution(ch, 1)), ref)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("mac", "--uniform"), ("mac", "--grid", "5"), ("vsi",), ("si",), ("sato",),
        ("hk",), ("cmg",), ("relay-pdf",),
    ], ids=" ".join)
    def test_one_input_channel_is_schema_error(self, capsys, argv):
        code, out, err = run(capsys, "region", *argv, "--builtin", "bb84_p2p")
        assert code == 2 and out == ""
        assert err == "error: expected a two-input channel, got 1 input(s)\n"

    def test_hk_region_json(self, capsys, tmp_path):
        path = tmp_path / "hk.json"
        code, _, _ = run(capsys, "region", "hk", "--builtin", "bb84_qmac",
                         "--seed", "2", "--out", str(path))
        assert code == 0
        region = region_from_json(json.loads(path.read_text()))
        assert region.dim == 2
        assert region.contains((0.0, 0.0))

    @pytest.mark.parametrize("sub,builtin", [
        ("si", "theta_swap(1.2)"),
        ("sato", "theta_swap(1.2)"),
        ("bc-superposition", "bb84_bc"),
        ("bc-marton", "bb84_bc"),
    ])
    def test_region_smoke(self, capsys, sub, builtin, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, "region", sub, "--builtin", builtin,
                         "--out", str(path))
        assert code == 0
        region = region_from_json(json.loads(path.read_text()))
        assert region.contains((0.0, 0.0))

    def test_relay_pdf_rate(self, capsys):
        code, out, _ = run(capsys, "region", "relay-pdf", "--builtin",
                           "bb84_relay", "--seed", "3")
        assert code == 0
        assert float(out) >= 0.0


class TestBosonic:
    def test_p2p_curves(self, capsys, tmp_path):
        path = tmp_path / "p2p.csv"
        code, _, _ = run(capsys, "bosonic", "p2p", "--param", "0.9", "1",
                         "--grid", "12", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "NS,hom,het,holevo"
        assert len(lines) == 13
        for line in lines[1:]:
            ns, hom, het, holevo = map(float, line.split(","))
            assert holevo >= max(hom, het) - 1e-9

    def test_p2p_ordering_high_power(self, capsys, tmp_path):
        path = tmp_path / "p2p.csv"
        run(capsys, "bosonic", "p2p", "--param", "0.9", "1", "--grid", "12",
            "--out", str(path))
        last = path.read_text().strip().split("\n")[-1]
        ns, hom, het, holevo = map(float, last.split(","))
        assert ns > 90
        assert holevo > het > hom

    def test_vsi_condition_printed(self, capsys):
        code, out, _ = run(capsys, "bosonic", "vsi", "--mode", "het",
                           "--param", "0.0625", "0.5", "0.5", "0.0625",
                           "1", "1", "1", "1")
        assert code == 0
        assert "condition: true" in out

    def test_hk_region(self, capsys, tmp_path):
        path = tmp_path / "bhk.json"
        code, _, _ = run(capsys, "bosonic", "hk", "--mode", "hom",
                         "--param", "0.3", "0.6", "0.6", "0.3",
                         "100", "100", "1", "1",
                         "--lambda", "0.5", "0.5", "--out", str(path))
        assert code == 0
        region = region_from_json(json.loads(path.read_text()))
        assert len(region.inequalities) == 9

    def test_lambda_out_of_range(self, capsys):
        code, _, err = run(capsys, "bosonic", "hk", "--param", "0.3", "0.6",
                           "0.6", "0.3", "100", "100", "1", "1",
                           "--lambda", "1.5", "0.5")
        assert code == 2
        assert "error" in err

    def test_param_count_checked(self, capsys):
        code, _, err = run(capsys, "bosonic", "vsi", "--param", "0.5")
        assert code == 2
        assert "8 parameters" in err

    def test_json_params(self, capsys, tmp_path):
        doc = {
            "eta": [[0.0625, 0.5], [0.5, 0.0625]],
            "NS": [1.0, 1.0],
            "NB": [1.0, 1.0],
            "mode": "het",
        }
        src = tmp_path / "params.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "bosonic", "vsi", "--channel", str(src))
        assert code == 0
        assert "condition: true" in out


class TestSim:
    def test_quantum_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                             "--param", "0.3", "2", "--delta", "0.4",
                             "--seed", "0", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "n,R,seed,delta,exact_error,hn_bound"
        assert len(lines) == 1 + 4 * 2

    def test_quantum_budget_violation(self, capsys, tmp_path):
        # one dense 4^8 x 4^8 matrix alone exceeds the byte budget
        rng = np.random.default_rng(0)
        table = {}
        for x in ("a", "b"):
            m = rng.normal(size=(4, 4))
            m = m @ m.T + np.eye(4)
            table[(x,)] = DensityMatrix(
                (m / np.trace(m)).astype(complex), (4,)
            )
        ch = CqChannel((("a", "b"),), table)
        src = tmp_path / "wide.json"
        src.write_text(json.dumps(dump_channel(ch)))
        code, _, err = run(capsys, "sim", "quantum", "--channel", str(src),
                           "--param", "0.3", "1")
        assert code == 2
        assert "error" in err

    def test_quantum_codebook_budget_violation(self, capsys):
        # rate 2 asks for 65536 codewords at n = 8, about 128 GiB of dense
        # projectors and POVM elements; the sweep is rejected up front
        code, out, err = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                             "--param", "2.0")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_quantum_codebook_size_overflow(self, capsys):
        code, out, err = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                             "--param", "1000")
        assert code == 2
        assert out == ""
        assert "codewords" in err

    def test_quantum_negative_rate(self, capsys):
        code, out, err = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                             "--param", "-0.3")
        assert code == 2
        assert out == ""
        assert "rate" in err

    @pytest.mark.parametrize("sub,params,what", [
        ("quantum", ("0.3", "2.7"), "codebook count"),
        ("classical", ("0.1", "12.5", "20"), "blocklength"),
        ("classical", ("0.1", "12", "20.9"), "trial count"),
    ])
    def test_fractional_counts(self, capsys, sub, params, what):
        code, out, err = run(capsys, "sim", sub, "--builtin", "bb84_p2p",
                             "--param", *params)
        assert code == 2
        assert out == ""
        assert what in err

    @pytest.mark.parametrize("params", [("1.0", "40", "1"), ("2.0", "30", "1")])
    def test_classical_codebook_budget_violation(self, capsys, params):
        code, out, err = run(capsys, "sim", "classical", "--builtin", "bb84_p2p",
                             "--param", *params)
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_classical_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "sim", "classical", "--builtin",
                               "bb84_p2p", "--param", "0.3", "10", "50",
                               "--delta", "0.5", "--seed", "7")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "error_rate=" in outs[0]

    def test_classical_out_csv(self, capsys, tmp_path):
        path = tmp_path / "cl.csv"
        code, _, _ = run(capsys, "sim", "classical", "--builtin", "bb84_p2p",
                         "--param", "0.3", "8", "20", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("n,R,seed,delta,trials")
        assert len(lines) == 2

    def test_no_partial_output_on_error(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, _ = run(capsys, "sim", "classical", "--builtin", "bb84_p2p",
                         "--param", "0.3", "--out", str(path))
        assert code == 2
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestThreadCap:
    def test_cap_applied(self, capsys, monkeypatch):
        monkeypatch.setenv("QNETCAP_THREADS", "3")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        code, _, _ = run(capsys, "capacity", "p2p-holevo", "--builtin",
                         "bb84_p2p")
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_bad_cap_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("QNETCAP_THREADS", "many")
        code, _, err = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p")
        assert code == 2
        assert "QNETCAP_THREADS" in err


class TestMalformedInput:
    """Non-finite numbers and malformed files are schema errors (exit 2)."""

    def test_nan_channel_entry(self, capsys, tmp_path):
        doc = dump_channel(builtin("bb84_p2p"))
        doc["outputs"]["0"][0][0] = float("nan")
        path = tmp_path / "nan_channel.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "capacity", "p2p-holevo", "--channel",
                             str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    def test_nan_delta(self, capsys):
        code, out, err = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                             "--param", "0.3", "--delta", "nan")
        assert code == 2
        assert out == ""
        assert "--delta" in err

    def test_nan_param(self, capsys):
        code, out, err = run(capsys, "bosonic", "p2p", "--param", "0.9", "nan")
        assert code == 2
        assert out == ""
        assert "--param" in err

    def test_nan_povm_angle(self, capsys):
        code, out, err = run(capsys, "capacity", "p2p-classical", "--builtin",
                             "bb84_p2p", "--povm-angle", "nan")
        assert code == 2
        assert out == ""
        assert "--povm-angle" in err

    def test_infinite_lambda(self, capsys):
        code, out, err = run(capsys, "bosonic", "hk", "--param", "0.3", "0.6",
                             "0.6", "0.3", "100", "100", "1", "1",
                             "--lambda", "0.8", "inf")
        assert code == 2
        assert out == ""
        assert "--lambda" in err

    def test_malformed_bosonic_json(self, capsys, tmp_path):
        path = tmp_path / "bad_bosonic.json"
        path.write_text('{"eta": [[0.3, 0.6], [0.6')
        code, out, err = run(capsys, "bosonic", "hk", "--channel", str(path))
        assert code == 2
        assert out == ""
        assert "not JSON" in err

    def test_flag_errors_reported_before_numpy(self, tmp_path):
        import subprocess
        import sys

        import qnetcap

        (tmp_path / "bad_bosonic.json").write_text('{"eta": [[0.3, 0.6], [0.6')
        (tmp_path / "bad.json").write_text('{"alphabets": [["0", "1"]], "dims": [2')
        script = (
            "import sys\n"
            "from qnetcap.cli import main\n"
            "codes = [main(line.split()) for line in (\n"
            "    'sim quantum --builtin bb84_p2p --param 0.3 --delta nan',\n"
            "    'bosonic hk --channel bad_bosonic.json',\n"
            "    'bosonic p2p --param 0.9 nan',\n"
            "    'capacity p2p-classical --builtin bb84_p2p --povm-angle nan',\n"
            "    'capacity p2p-holevo --channel bad.json',\n"
            "    'region mac --channel bad.json',\n"
            "    'sim quantum --channel bad.json --param 0.3',\n"
            ")]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == "[2, 2, 2, 2, 2, 2, 2] False\n"
        bad_channel = ("error: channel file bad.json is not JSON: Expecting ',' delimiter:"
                       " line 1 column 39 (char 38)\n")
        assert done.stderr == (
            "error: --delta must be finite, got [nan]\n"
            "error: bosonic parameter file bad_bosonic.json is not JSON:"
            " Expecting ',' delimiter: line 1 column 26 (char 25)\n"
            "error: --param must be finite, got [0.9, nan]\n"
            "error: --povm-angle must be finite, got [nan]\n"
        ) + 3 * bad_channel

    def test_unreadable_bosonic_json(self, capsys, tmp_path):
        code, out, err = run(capsys, "bosonic", "hk", "--channel", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "cannot read" in err
