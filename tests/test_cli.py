import argparse
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qnetcap import network
from qnetcap.channels import CqChannel, builtin, dump_channel
from qnetcap.cli import build_parser, main
from qnetcap.entropic import ProbDist
from qnetcap.qstate import DensityMatrix
from qnetcap.regions import (
    HalfspaceRegion,
    boundary_sample,
    region_from_json,
    region_to_json,
)

H_BB84 = 0.6008760366928562


def uniform_pair(ch):
    return [ProbDist.uniform(a) for a in ch.input_alphabets]


def uniform_code(ch):
    return network.CodeDistribution.no_time_share(*uniform_pair(ch))


# region command line -> (builtin channel, the library region it writes)
REGION_ARTIFACTS = {
    "mac --uniform": ("bb84_qmac", lambda ch: network.mac_region(ch, *uniform_pair(ch))),
    "vsi": ("theta_swap(1.2)", lambda ch: network.vsi_capacity(ch, uniform_code(ch))),
    "si": ("theta_swap(1.2)", lambda ch: network.si_capacity(ch, uniform_code(ch))),
    "sato": ("theta_swap(1.2)", lambda ch: network.sato_outer(ch, uniform_code(ch))),
    "hk --seed 2": ("bb84_qmac", lambda ch: network.hk_region(
        ch, network.random_hk_distribution(ch, 2))),
    "cmg --seed 1 --oracle": ("bb84_qmac", lambda ch: network.cmg_region(
        ch, network.random_cmg_distribution(ch, 1))),
    "bc-superposition --seed 4": ("bb84_bc", lambda ch: network.superposition_region(
        ch, network.random_superposition_distribution(ch, 4))),
    "bc-marton --seed 5": ("bb84_bc", lambda ch: network.marton_region(
        ch, network.random_marton_distribution(ch, 5))),
}


GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (family, subcommand) -> every flag it defines.  Each is read by the
# subcommand, except --grid on region vsi (its README line passes it).
FLAGS = {
    ("capacity", "p2p-classical"): "--builtin --channel --out --povm-angle",
    ("capacity", "p2p-holevo"): "--builtin --channel --out",
    ("region", "mac"): "--builtin --channel --grid --out --uniform",
    ("region", "vsi"): "--builtin --channel --grid --out",
    ("region", "si"): "--builtin --channel --out",
    ("region", "sato"): "--builtin --channel --out",
    ("region", "hk"): "--builtin --channel --seed --out",
    ("region", "cmg"): "--builtin --channel --seed --out --oracle",
    ("region", "bc-superposition"): "--builtin --channel --seed --out",
    ("region", "bc-marton"): "--builtin --channel --seed --out",
    ("region", "relay-pdf"): "--builtin --channel --seed --out",
    ("bosonic", "p2p"): "--param --grid --out",
    ("bosonic", "vsi"): "--param --channel --mode --lambda --out",
    ("bosonic", "si"): "--param --channel --mode --lambda --out",
    ("bosonic", "hk"): "--param --channel --mode --lambda --out",
    ("sim", "quantum"): "--builtin --channel --param --delta --seed --out",
    ("sim", "classical"): "--builtin --channel --param --delta --seed --out",
}


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestFlags:
    def test_each_subcommand_defines_the_flags_it_reads(self):
        defined = {
            (family, name): {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for family, fp in subcommands(build_parser()).items()
            for name, sp in subcommands(fp).items()
        }
        assert defined == {key: set(flags.split()) for key, flags in FLAGS.items()}
        assert sum(map(len, defined.values())) == 73

    @pytest.mark.parametrize("line", [
        "region cmg --builtin bb84_qmac --grid 1",
        "capacity p2p-holevo --builtin bb84_p2p --delta 0.1",
        "bosonic p2p --param 0.9 1 --mode hom",
        "region hk --builtin bb84_qmac --delta 0.1",
        # builtin parameters go in the name
        "region vsi --builtin theta_swap --param 1.2",
    ])
    def test_flag_of_another_subcommand_exits_2(self, capsys, line):
        with pytest.raises(SystemExit) as exit_:
            main(line.split())
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_help_names_what_it_writes(self):
        # one format, or for a region the format its suffix chooses
        helps = {
            (family, name): next(a.help for a in sp._actions if "--out" in a.option_strings)
            for family, fp in subcommands(build_parser()).items()
            for name, sp in subcommands(fp).items()
        }
        writes = {key: help_text.split(";")[0] for key, help_text in helps.items()}
        region = ("output file: the region's boundary sweep (theta,R1,R2) for a"
                  " .csv name, else the JSON of stdout")
        assert writes == {
            key: "output JSON file" if key[0] == "capacity" or key[1] == "relay-pdf"
            else "output CSV file" if key[0] == "sim" or key[1] == "p2p"
            else "output CSV file of the grid union" if key[1] == "mac"
            else region
            for key in FLAGS
        }

    @pytest.mark.parametrize("line", [
        "capacity p2p-holevo --builtin bb84_p2p --out x.csv",
        "capacity p2p-classical --builtin bb84_p2p --out x.csv",
        "region relay-pdf --builtin bb84_relay --out x.csv",
        "region mac --builtin bb84_qmac --grid 3 --out x.json",
        "bosonic p2p --param 0.9 1 --out x.json",
        "sim quantum --builtin bb84_p2p --param 0.3 1 --out x.json",
        "sim classical --builtin bb84_p2p --param 0.1 6 20 --out x.json",
    ])
    def test_out_suffix_of_the_other_format_exits_2(self, capsys, tmp_path, monkeypatch,
                                                    line):
        monkeypatch.chdir(tmp_path)
        argv = line.split()
        other = ".json" if line.endswith(".csv") else ".csv"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: --out {argv[-1]}: {argv[0]} {argv[1]} writes"
                       f" {other[1:].upper()}; use a {other} name\n")
        assert list(tmp_path.iterdir()) == []
        # any other suffix is the file's name only
        assert run(capsys, *argv[:-1], "x.txt")[0] == 0
        assert os.listdir(tmp_path) == ["x.txt"]

    def test_bosonic_p2p_reads_only_param(self, capsys):
        code, out, err = run(capsys, "bosonic", "p2p")
        assert (code, out, err) == (2, "", "error: expected 2 parameters: eta NB\n")


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

    def test_povm_angle_on_qutrit_is_schema_error(self, capsys, tmp_path):
        # the angle flag names a qubit measurement; a qutrit channel does not fit it
        ket = np.array([1.0, 0.0, 0.0])
        qutrit = DensityMatrix(np.outer(ket, ket).astype(complex), (3,))
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(dump_channel(CqChannel((("0",),), {("0",): qutrit}))))
        code, out, err = run(capsys, "capacity", "p2p-classical", "--channel",
                             str(path), "--povm-angle", "0.3")
        assert (code, out, err) == (2, "", "error: POVM dim 2 vs state dim 3\n")

    def test_out_json(self, capsys, tmp_path):
        path = tmp_path / "cap.json"
        code, out, _ = run(capsys, "capacity", "p2p-holevo", "--builtin",
                           "bb84_p2p", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        doc = json.loads(text)
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
        # the iteration needs no grid, so capacity defines no --grid flag
        with pytest.raises(SystemExit) as exit_:
            main(["capacity", "p2p-holevo", "--builtin", "bb84_p2p", "--grid", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --grid 1" in capsys.readouterr().err

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

    def test_scipy_optimize_not_imported(self, tmp_path):
        # every qnetcap module and all nine README commands, in one fresh
        # interpreter, load no scipy module at all
        import subprocess
        import sys

        import qnetcap

        readme = (Path(qnetcap.__file__).parents[2] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```")[1]
        commands = [line for line in block.splitlines() if line.startswith("qnetcap ")]
        assert len(commands) == 9
        script = (
            "import importlib, pkgutil, shlex, sys\n"
            "import qnetcap\n"
            "for mod in pkgutil.iter_modules(qnetcap.__path__):\n"
            "    importlib.import_module('qnetcap.' + mod.name)\n"
            "from qnetcap.channels import builtin\n"
            "qnetcap.network.hsw_capacity(builtin('bb84_p2p'))\n"
            "ch = builtin('bb84_qmac')\n"
            "qnetcap.network.cmg_region_via_projection("
            "ch, qnetcap.network.random_cmg_distribution(ch, 2))\n"
            "for line in sys.argv[1:]:\n"
            "    assert qnetcap.cli.main(shlex.split(line)[1:]) == 0, line\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "oracle agreement: 1.000000\n" in done.stdout
        assert done.stdout.endswith("\n[]\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["curves.csv", "pentagon.csv"]


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

    # the exact bytes of a grid union's stdout or --out file; a platform
    # whose bytes differ is a finding to report, not a tolerance to add
    @pytest.mark.parametrize("argv, golden", [
        ("--builtin bb84_qmac --grid 21", "region_mac_bb84_qmac_grid21.txt"),
        ("--builtin theta_swap(1.2) --grid 11 --out union.csv",
         "region_mac_theta_swap_grid11.csv"),
    ])
    def test_mac_union_golden_bytes(self, capsys, tmp_path, monkeypatch, argv, golden):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "region", "mac", *argv.split())
        assert code == 0
        got = (tmp_path / "union.csv").read_bytes() if "--out" in argv else out.encode()
        assert got == (GOLDEN / golden).read_bytes()

    # the exact bytes of region commands on states of one-register factors
    # (cmg, hk, the README's mac and vsi lines, si, sato, bc-superposition)
    # and of joint factors (relay-pdf, bc-marton), and of the README's
    # capacity, bosonic and sim classical lines, stdout or --out file; a
    # region argv omits "region"
    @pytest.mark.parametrize("argv, golden", [
        ("cmg --builtin bb84_qmac --seed 1 --oracle", "region_cmg_bb84_qmac_seed1_oracle.txt"),
        ("cmg --builtin theta_swap(1.2) --seed 2 --oracle",
         "region_cmg_theta_swap_1.2_seed2_oracle.txt"),
        ("hk --builtin bb84_qmac --seed 2", "region_hk_bb84_qmac_seed2.json"),
        ("relay-pdf --builtin bb84_relay --seed 3", "region_relay_pdf_bb84_relay_seed3.txt"),
        ("relay-pdf --builtin bb84_relay --seed 3 --out r.json",
         "region_relay_pdf_bb84_relay_seed3.json"),
        ("bc-marton --builtin bb84_bc --seed 4", "region_bc_marton_bb84_bc_seed4.json"),
        ("mac --builtin bb84_qmac --uniform --out pentagon.csv",
         "region_mac_bb84_qmac_uniform.csv"),
        ("vsi --builtin theta_swap(1.5707963) --grid 21", "region_vsi_theta_swap_pi2_grid21.json"),
        ("si --builtin theta_swap(1.2)", "region_si_theta_swap_1.2.json"),
        ("sato --builtin theta_swap(1.2)", "region_sato_theta_swap_1.2.json"),
        ("bc-superposition --builtin bb84_bc --seed 1",
         "region_bc_superposition_bb84_bc_seed1.json"),
        ("capacity p2p-holevo --builtin bb84_p2p", "capacity_p2p_holevo_bb84_p2p.txt"),
        ("capacity p2p-classical --builtin bb84_p2p --povm-angle -0.3927",
         "capacity_p2p_classical_bb84_p2p_angle-0.3927.txt"),
        ("bosonic p2p --param 0.9 1.0 --grid 41 --out curves.csv",
         "bosonic_p2p_0.9_1.0_grid41.csv"),
        ("bosonic hk --param 0.3 0.6 0.6 0.3 100 100 1 1 --lambda 0.8 0.8",
         "bosonic_hk_0.3_0.6_0.6_0.3_100_100_1_1_lambda0.8.json"),
        ("sim classical --builtin bb84_p2p --param 0.1 12 2000 --seed 21",
         "sim_classical_bb84_p2p_0.1_12_2000_seed21.txt"),
    ])
    def test_region_golden_bytes(self, capsys, tmp_path, monkeypatch, argv, golden):
        monkeypatch.chdir(tmp_path)
        argv = argv.split()
        if argv[0] not in ("capacity", "bosonic", "sim"):
            argv.insert(0, "region")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = (tmp_path / argv[-1]).read_bytes() if "--out" in argv else out.encode()
        assert got == (GOLDEN / golden).read_bytes()

    def test_vsi_pi_half_origin(self, capsys):
        code, out, _ = run(capsys, "region", "vsi", "--builtin",
                           "theta_swap(1.5707963267948966)")
        assert code == 0
        doc = json.loads(out)
        for ineq in doc["ineqs"]:
            assert ineq["b"] < 1e-6

    def test_vsi_csv(self, capsys, tmp_path):
        path = tmp_path / "vsi.csv"
        code, _, _ = run(capsys, "region", "vsi", "--builtin", "theta_swap(1.2)",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("theta,R1,R2")

    def test_cmg_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "region", "cmg", "--builtin", "bb84_qmac",
                           "--seed", "1", "--oracle")
        assert code == 0
        assert "oracle agreement" in out

    def test_cmg_oracle_disagreement_exits_3(self, capsys, monkeypatch):
        real = network.cmg_regions

        def shrunk(ch, dist):
            # one projected facet pulled in by 2%: the direct region no longer
            # implies it, while every other row of both still holds
            direct, region = real(ch, dist)
            rows = list(region.inequalities)
            rows[-1] = (rows[-1][0], 0.98 * rows[-1][1])
            return direct, HalfspaceRegion(region.coordinate_names, rows)

        monkeypatch.setattr(network, "cmg_regions", shrunk)
        code, out, err = run(capsys, "region", "cmg", "--builtin", "bb84_qmac",
                             "--seed", "1", "--oracle")
        assert (code, err) == (3, "error: region routes disagree\n")
        # 11 of the 9 direct and 3 projected rows are implied: all but the shrunk facet
        assert out == "oracle agreement: 0.916667\n"

    def test_cmg_oracle_evaluates_terms_once(self, capsys, monkeypatch, tmp_path):
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
        # the emitted region is the direct one, as stdout prints it
        ch = builtin("bb84_qmac")
        direct = network.cmg_region(ch, network.random_cmg_distribution(ch, 1))
        assert path.read_text() == json.dumps(region_to_json(direct), indent=2) + "\n"
        _, out, _ = run(capsys, "region", "cmg", "--builtin", "bb84_qmac", "--seed", "1",
                        "--oracle")
        assert path.read_text() == out[out.index("{"):]

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

    @pytest.mark.parametrize("line", REGION_ARTIFACTS)
    def test_region_artifacts(self, capsys, tmp_path, line):
        # stdout, --out .json and --out .csv all write the library's region;
        # the .json file has the bytes of the JSON on stdout
        name, region_of = REGION_ARTIFACTS[line]
        lib = region_of(builtin(name))
        argv = ["region", *line.split(), "--builtin", name]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        text = out[out.index("{"):]
        assert text == json.dumps(region_to_json(lib), indent=2) + "\n"
        sweep = "".join(f"{t:.10g},{r1:.10g},{r2:.10g}\n"
                        for t, r1, r2 in boundary_sample(lib, 181))
        for path, expected in ((tmp_path / "x.json", text.encode()),
                               (tmp_path / "x.csv", ("theta,R1,R2\n" + sweep).encode())):
            assert run(capsys, *argv, "--out", str(path))[0] == 0
            assert path.read_bytes() == expected

    def test_relay_pdf_rate(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(capsys, "region", "relay-pdf", "--builtin",
                           "bb84_relay", "--seed", "3", "--out", str(path))
        assert code == 0
        assert float(out) >= 0.0
        # the indented layout of every JSON artifact
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert format(json.loads(text)["rate"], ".10g") + "\n" == out

    @pytest.mark.parametrize("path,reason", [
        (os.path.join("nodir", "x.csv"), "[Errno 2] No such file or directory"),
        ("taken", "[Errno 21] Is a directory"),
    ])
    def test_unwritable_out_names_the_out_path(self, capsys, tmp_path, monkeypatch,
                                               path, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        code, out, err = run(capsys, "region", "vsi", "--builtin", "theta_swap(1.2)",
                             "--out", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {reason}: {path!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []


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

    def test_p2p_huge_thermal_noise(self, capsys):
        # at NB = 1e15 a cancelling thermal entropy once printed a Holevo
        # rate of -4 with exit 0
        code, out, _ = run(capsys, "bosonic", "p2p", "--param", "0.5", "1e15", "--grid", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "NS,hom,het,holevo" and len(lines) == 3
        assert all(float(line.split(",")[3]) >= 0.0 for line in lines[1:])

    @pytest.mark.parametrize("nb", ["1e15", "1e306"])
    def test_p2p_rates_survive_huge_thermal_noise(self, capsys, nb):
        # the rates once cancelled: at NB = 1e15 the Holevo rate printed
        # below the homodyne one, and at NB = 1e306 all three printed 0
        code, out, _ = run(capsys, "bosonic", "p2p", "--param", "0.5", nb, "--grid", "2")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, hom, het, holevo = map(float, line.split(","))
            assert holevo >= max(hom, het) > 0.0

    # README parameters, then seeded (eta, NB) draws with NB from 1e-3 to 1e3
    P2P_DRAWS = [(0.9, 1.0)] + [
        (float(eta), float(10**lg))
        for eta, lg in np.random.default_rng(0).uniform((0.0, -3.0), (1.0, 3.0), (3, 2))
    ]

    @pytest.mark.parametrize("eta,nb", P2P_DRAWS, ids=["readme", "draw0", "draw1", "draw2"])
    def test_p2p_rows_match_geomspace(self, eta, nb):
        # the signal powers are computed without numpy; where Python's power
        # differs from np.power in the last bit, the CSV row must not
        from qnetcap.bosonic import c_heterodyne, c_holevo, c_homodyne
        from qnetcap.cli import _cell, _signal_powers

        def row(ns):
            rates = (f(eta, ns, nb) for f in (c_homodyne, c_heterodyne, c_holevo))
            return ",".join(map(_cell, (ns, *rates)))

        for n in range(2, 1201):
            ours, theirs = _signal_powers(n), np.geomspace(0.01, 100.0, n).tolist()
            assert len(ours) == n and ours[0] == theirs[0] and ours[-1] == theirs[-1]
            for x, y in zip(ours, theirs):
                if x != y:
                    assert row(x) == row(y), (n, x, y)

    def test_closed_forms_run_without_numpy(self, capsys, tmp_path, monkeypatch):
        # each command prints what it prints with numpy loaded
        import subprocess
        import sys

        import qnetcap

        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps(
            {"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": [100, 100], "NB": [1, 1],
             "lambda": [0.8, 0.8], "mode": "het"}))
        params = "--param 0.3 0.6 0.6 0.3 100 100 1 1 --lambda 0.8 0.8"
        lines = ["bosonic p2p --param 0.9 1.0 --grid 41"] + [
            f"bosonic {sub} {source}" for sub in ("vsi", "si", "hk")
            for source in (params, "--channel params.json")
        ]
        script = (
            "import sys\n"
            "from qnetcap.cli import main\n"
            "for line in sys.argv[1:]:\n"
            "    assert main(line.split()) == 0, line\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, *lines], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        expected = [run(capsys, *line.split()) for line in lines]
        assert all(code == 0 and err == "" for code, _, err in expected)
        assert done.stdout == "".join(out for _, out, _ in expected) + "False\n"

    def test_vsi_condition_printed(self, capsys):
        code, out, _ = run(capsys, "bosonic", "vsi", "--mode", "het",
                           "--param", "0.0625", "0.5", "0.5", "0.0625",
                           "1", "1", "1", "1")
        assert code == 0
        assert "condition: true" in out

    @pytest.mark.parametrize("mode", ["homodyne", "heterodyne", "HET"])
    def test_mode_has_one_spelling(self, capsys, mode):
        code, out, err = run(capsys, "bosonic", "vsi", "--mode", mode, "--param",
                             "0.0625", "0.5", "0.5", "0.0625", "1", "1", "1", "1")
        assert (code, out) == (2, "")
        assert err == (f"error: unknown detection mode {mode!r};"
                       " expected hom, het, or joint\n")

    def test_hk_region(self, capsys, tmp_path):
        path = tmp_path / "bhk.json"
        code, _, _ = run(capsys, "bosonic", "hk", "--mode", "hom",
                         "--param", "0.3", "0.6", "0.6", "0.3",
                         "100", "100", "1", "1",
                         "--lambda", "0.5", "0.5", "--out", str(path))
        assert code == 0
        region = region_from_json(json.loads(path.read_text()))
        assert len(region.inequalities) == 9

    @pytest.mark.parametrize("sub", ["vsi", "si", "hk"])
    def test_region_json_file_is_stdout(self, capsys, tmp_path, sub):
        # vsi and si print their condition line before the region
        argv = ["bosonic", sub, "--param", "0.3", "0.6", "0.6", "0.3", "100", "100", "1", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "x.json"
        assert run(capsys, *argv, "--out", str(path)) == (0, out[:out.index("{")], "")
        assert path.read_text() == out[out.index("{"):]

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

    # the exact bytes of the README sweep's stdout and of the srm demo's
    # --out file, so a faster sweep must reproduce every digit
    @pytest.mark.parametrize("argv, golden", [
        ("--param 0.3 --delta 0.4 --seed 0", "sim_quantum_bb84_p2p_r0.3.txt"),
        ("--param 0.3 20 --delta 0.4 --seed 0 --out s.csv",
         "sim_quantum_bb84_p2p_r0.3_seeds20.csv"),
    ])
    def test_quantum_golden_bytes(self, capsys, tmp_path, monkeypatch, argv, golden):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p", *argv.split())
        assert code == 0
        got = (tmp_path / "s.csv").read_bytes() if "--out" in argv else out.encode()
        assert got == (GOLDEN / golden).read_bytes()

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

    def test_rows_to_stdout_need_no_file(self, capsys, monkeypatch):
        import tempfile

        def refuse(*args, **kwargs):
            raise AssertionError("stdout output went through a file")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        code, out, _ = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                           "--param", "0.3", "1", "--delta", "0.4")
        assert code == 0
        assert out.split("\n")[0] == "n,R,seed,delta,exact_error,hn_bound"
        assert len(out.strip().split("\n")) == 1 + 4

    def test_integer_columns_written_whole(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sim", "quantum", "--builtin", "bb84_p2p",
                           "--param", "0.3", "1", "--seed", "12345678901")
        assert code == 0
        assert out.split("\n")[1].startswith("2,0.3,12345678901,0.4,")
        path = tmp_path / "r.csv"
        code, _, _ = run(capsys, "sim", "classical", "--builtin", "bb84_p2p",
                         "--param", "0.1", "12", "50", "--seed", "12345678901",
                         "--out", str(path))
        assert code == 0
        assert path.read_text().split("\n")[1].startswith("12,0.1,12345678901,0.4,50,")

    def test_no_partial_output_on_error(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, _ = run(capsys, "sim", "classical", "--builtin", "bb84_p2p",
                         "--param", "0.3", "--out", str(path))
        assert code == 2
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestMalformedInput:
    """Non-finite numbers and malformed files are schema errors (exit 2)."""

    MATRIX = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    BB84 = dump_channel(builtin("bb84_p2p"))
    CHANNEL_DOCS = {
        "empty alphabet": {"alphabets": [[]], "dims": [2], "outputs": {}},
        "second alphabet empty": {"alphabets": [["0"], []], "dims": [2], "outputs": {}},
        "no alphabets": {"alphabets": [], "dims": [2], "outputs": {}},
        "three alphabets": {"alphabets": [["0"], ["0"], ["0"]], "dims": [2], "outputs": {}},
        "alphabets not lists": {"alphabets": "01", "dims": [2], "outputs": {}},
        "repeated symbol": {"alphabets": [["0", "0"]], "dims": [2], "outputs": {"0": MATRIX}},
        "comma in symbol": {"alphabets": [["a,b"]], "dims": [2], "outputs": {}},
        "no dims": {"alphabets": [["0"]], "dims": [], "outputs": {"0": [[1.0, 0.0]]}},
        "three dims": {"alphabets": [["0"]], "dims": [1, 1, 1], "outputs": {"0": [[1.0, 0.0]]}},
        "zero dim": {"alphabets": [["0"]], "dims": [0], "outputs": {"0": []}},
        "boolean dim": {"alphabets": [["0"]], "dims": [True], "outputs": {"0": [[1.0, 0.0]]}},
        # the product is 2**64 + 2, read as 2 in int64: qubit matrices must not pass
        "dims past int64": {"alphabets": [["0", "1"]], "dims": [6, 3074457345618258603],
                            "outputs": {"0": MATRIX, "1": MATRIX}},
        "outputs not an object": {"alphabets": [["0"]], "dims": [2], "outputs": []},
        "missing outputs": {"alphabets": [["0"]], "dims": [2]},
        "missing output": {"alphabets": [["0", "1"]], "dims": [2], "outputs": {"0": MATRIX}},
        "unknown output": {"alphabets": [["0"]], "dims": [2], "outputs": {"0": MATRIX, "9": MATRIX}},
        "matrix not numbers": {"alphabets": [["0"]], "dims": [2], "outputs": {"0": "junk"}},
        "matrix too short": {"alphabets": [["0"]], "dims": [2], "outputs": {"0": [[1.0, 0.0]]}},
        # bb84_p2p with a JSON integer too large for a float, once an
        # OverflowError (exit 1), or with booleans, once read as 1.0 and 0.0 (exit 0)
        "401-digit entry": {**BB84, "outputs": {
            **BB84["outputs"], "0": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}},
        "boolean entries": {**BB84, "outputs": {
            **BB84["outputs"], "0": [[True, False], [0, 0], [0, 0], [False, False]]}},
        "document a list": [1, 2],
        "document null": None,
    }
    MESSAGES = {"no alphabets": "0 input alphabets; need 1 or 2"}

    @pytest.mark.parametrize("name,doc", CHANNEL_DOCS.items(), ids=CHANNEL_DOCS.keys())
    @pytest.mark.parametrize("family", [("capacity", "p2p-holevo"), ("region", "mac"),
                                        ("sim", "quantum", "--param", "0.3")],
                             ids=lambda f: f[0])
    def test_malformed_channel_document(self, capsys, tmp_path, family, name, doc):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *family, "--channel", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if name in self.MESSAGES:
            assert err == f"error: {self.MESSAGES[name]}\n"

    def test_null_bosonic_document(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text("null")
        code, out, err = run(capsys, "bosonic", "hk", "--channel", str(path))
        assert (code, out) == (2, "")
        assert err == "error: bosonic parameter document must be an object\n"

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

    @pytest.mark.parametrize("name", ["theta_swap(nan)", "theta_swap(inf)",
                                      "theta_swap(1e400)"])
    def test_non_finite_builtin_parameter_in_name(self, capsys, name):
        # the same schema error as --param nan, not a non-finite matrix
        code, out, err = run(capsys, "region", "vsi", "--builtin", name)
        assert (code, out) == (2, "")
        assert err.startswith("error: theta_swap parameters must be finite")

    @pytest.mark.parametrize("grid", ["1", "1000001", "1" * 401],
                             ids=["1", "1000001", "401 digits"])
    @pytest.mark.parametrize("argv", [("region", "mac", "--builtin", "bb84_qmac"),
                                      ("bosonic", "p2p", "--param", "0.9", "1")],
                             ids=lambda argv: argv[0])
    def test_grid_out_of_range(self, capsys, argv, grid):
        # a 401-digit grid once ended in an OverflowError traceback (exit 1)
        code, out, err = run(capsys, *argv, "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"error: --grid must be from 2 to 1000000, got {grid}\n"

    def test_region_mac_grid_2_exits_2(self, capsys):
        # bosonic p2p still takes a grid of 2; the grid union once printed 0
        # in every direction at grid 2
        code, out, err = run(capsys, "region", "mac", "--builtin", "bb84_qmac", "--grid", "2")
        assert (code, out) == (2, "")
        assert err == ("error: grid 2 < 3 visits only deterministic inputs,"
                       " where every information is 0\n")
        assert run(capsys, "bosonic", "p2p", "--param", "0.9", "1", "--grid", "2")[0] == 0

    ONE_SOURCE = "give exactly one parameter source (--param or --channel)"
    REJECTED = {
        "negative delta": ("sim quantum --builtin bb84_p2p --param 0.3 --delta -0.1",
                           "--delta must be >= 0, got -0.1"),
        "no codebooks": ("sim quantum --builtin bb84_p2p --param 0.3 0",
                         "codebook count must be >= 1, got 0"),
        "both sources": ("bosonic hk --param 0.3 0.6 0.6 0.3 100 100 1 1 --channel p.json",
                         ONE_SOURCE),
        "no source": ("bosonic hk", ONE_SOURCE),
    }

    @pytest.mark.parametrize("line, message", REJECTED.values(), ids=REJECTED.keys())
    def test_argument_rule(self, capsys, line, message):
        code, out, err = run(capsys, *line.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    # "NS" values of an otherwise well-formed parameter document
    BOSONIC_NS = {
        "object": '{"a": 1}',
        "integer past the float range": "[" + "1" * 401 + ", 1]",
        "booleans": "[true, false]",
        "string": '"12"',
        "three numbers": "[1, 2, 3]",
    }

    @pytest.mark.parametrize("ns", BOSONIC_NS.values(), ids=BOSONIC_NS.keys())
    def test_malformed_bosonic_pair(self, capsys, tmp_path, ns):
        path = tmp_path / "params.json"
        path.write_text('{"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": ' + ns + ', "NB": [1, 1]}')
        code, out, err = run(capsys, "bosonic", "hk", "--channel", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'NS' ") and err.count("\n") == 1

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
        # JSON has no NaN, Infinity or -Infinity, even under a key no reader reads
        channel = json.dumps(dump_channel(builtin("bb84_p2p")))
        (tmp_path / "nan.json").write_text(channel.replace("1.0", "NaN", 1))
        (tmp_path / "inf.json").write_text(channel[:-1] + ', "note": Infinity}')
        bosonic = '{"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": [100, 100], "NB": [1, 1]'
        (tmp_path / "bos_inf.json").write_text(bosonic.replace("100,", "-Infinity,") + "}")
        (tmp_path / "bos_nan.json").write_text(bosonic + ', "note": [NaN]}')
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
            "    'capacity p2p-holevo --channel nan.json',\n"
            "    'region mac --channel inf.json',\n"
            "    'bosonic hk --channel bos_inf.json',\n"
            "    'bosonic vsi --channel bos_nan.json',\n"
            "    'capacity p2p-holevo --builtin bb84_p2p --out c.csv',\n"
            "    'sim quantum --builtin bb84_p2p --param 0.3 --out s.json',\n"
            ")]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == f"{[2] * 13} False\n"
        bad_channel = ("error: channel file bad.json is not JSON: Expecting ',' delimiter:"
                       " line 1 column 39 (char 38)\n")
        assert done.stderr == (
            "error: --delta must be finite, got [nan]\n"
            "error: bosonic parameter file bad_bosonic.json is not JSON:"
            " Expecting ',' delimiter: line 1 column 26 (char 25)\n"
            "error: --param must be finite, got [0.9, nan]\n"
            "error: --povm-angle must be finite, got [nan]\n"
        ) + 3 * bad_channel + (
            "error: channel file nan.json is not JSON: non-finite number NaN\n"
            "error: channel file inf.json is not JSON: non-finite number Infinity\n"
            "error: bosonic parameter file bos_inf.json is not JSON:"
            " non-finite number -Infinity\n"
            "error: bosonic parameter file bos_nan.json is not JSON: non-finite number NaN\n"
            "error: --out c.csv: capacity p2p-holevo writes JSON; use a .json name\n"
            "error: --out s.json: sim quantum writes CSV; use a .csv name\n"
        )
        assert "c.csv" not in os.listdir(tmp_path) and "s.json" not in os.listdir(tmp_path)

    def test_float_overflow_is_valid_json(self, capsys, tmp_path):
        # 1e999 is a JSON number that parses to inf; the matrix check
        # rejects it once the file has been read
        doc = dump_channel(builtin("bb84_p2p"))
        doc["outputs"]["0"][0][0] = 1e999
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
        code, out, err = run(capsys, "capacity", "p2p-holevo", "--channel", str(path))
        assert (code, out) == (2, "")
        assert err == "error: output for input '0': matrix encoding has non-finite entries\n"

    def test_unreadable_bosonic_json(self, capsys, tmp_path):
        code, out, err = run(capsys, "bosonic", "hk", "--channel", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "cannot read" in err
