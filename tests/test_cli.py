import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "meanderslice.cli", *args],
        capture_output=True,
        env=env,
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    return payload


# --- exit codes -----------------------------------------------------------

def test_exit_code_input_errors():
    assert run_cli("meander", "2", "4").returncode == 2
    assert run_cli("verify", "1", "1").returncode == 2
    assert run_cli("meander").returncode == 2
    assert run_cli("sigmap").returncode == 2
    assert run_cli("nonsense", "1", "2").returncode == 2


def test_exit_code_bad_ranges_and_options():
    assert run_cli("verify", "--max-n", "2").returncode == 2  # no pair at all
    assert run_cli("verify", "--max-n", "-4").returncode == 2
    assert run_cli("verify", "2", "3", "--max-n", "5").returncode == 2
    assert run_cli("verify", "2", "--max-n", "5").returncode == 2  # p without q
    assert run_cli("verify", "2", "3", "--jobs", "0").returncode == 2
    assert run_cli("verify", "--max-n", "5", "--jobs", "-1").returncode == 2


def test_exit_code_success():
    assert run_cli("meander", "2", "3").returncode == 0
    assert run_cli("verify", "2", "3").returncode == 0


# --- meander --------------------------------------------------------------

def test_meander_json():
    payload = run_json("meander", "2", "3")
    assert payload["phi"] == [4, 2, 1, 5, 3]
    assert payload["signature"] == "-"
    assert payload["nil"] == [1, 3]
    assert payload["e"] == 2
    payload = run_json("meander", "1", "2")
    assert payload["phi"] == [1, 3, 2]
    assert payload["signature"] == ""


def test_meander_text():
    out = run_cli("meander", "2", "3").stdout.decode()
    assert "phi: [4, 2, 1, 5, 3]" in out
    assert "signature: -" in out


# --- construct ------------------------------------------------------------

def test_construct_bytes_pinned(capsysbinary):
    from meanderslice import cli
    from meanderslice.meander import coprime_pairs

    for pair in coprime_pairs(30):
        assert cli.main(["construct", str(pair.p), str(pair.q), "--format", "json"]) == 0
    out = capsysbinary.readouterr().out
    # the v1 report bytes of every construction with n <= 30
    assert hashlib.md5(out).hexdigest() == "442067af32103bfeb3cb6cde7dfe907d"


def test_construct_rule_error_exits_1(monkeypatch, capsys):
    from meanderslice import cli
    from meanderslice.slicebuild import ConstructionRuleError

    def rule_error(sc):
        raise ConstructionRuleError("cycle detected among the changed values")

    monkeypatch.setattr(cli, "triangularity_order", rule_error)
    assert cli.main(["construct", "2", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "slice: verification failure: cycle detected among the changed values\n"


def test_verify_rule_error_names_the_pair(monkeypatch, capsys):
    from meanderslice import cli, slicebuild
    from meanderslice.slicebuild import ConstructionRuleError

    build = slicebuild.build_pi_star

    def rule_error(td, sig):
        if (td.pair.p, td.pair.q) == (2, 5):
            raise ConstructionRuleError("beta_3 changed twice")
        return build(td, sig)

    monkeypatch.setattr(slicebuild, "build_pi_star", rule_error)
    assert cli.main(["verify", "--max-n", "8", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "slice: verification failure: no certified construction for (2,5): beta_3 changed twice\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "2", "3"], "(2,3): the cascade union is not the signed meander chain (2 roots, expected 4)"),
        (["verify", "--max-n", "5"], "(1,2): the cascade union is not the signed meander chain (1 roots, expected 2)"),
    ],
)
def test_verify_adapted_pair_error_names_the_pair(argv, message, monkeypatch, capsys):
    from meanderslice import cli, rootlab

    monkeypatch.setattr(rootlab, "levi_cascade", lambda p, q: frozenset())
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "slice: verification failure: no certified adapted pair for %s\n" % message


def test_construct_json_witnesses():
    payload = run_json("construct", "2", "3")
    assert payload["order"] == [2, 4, 1, 5, 3]
    assert payload["used_exceptional_fix"] is False
    assert payload["construction_mode"] == "rule-based"
    payload = run_json("construct", "1", "2")
    assert payload["order"] == [2, 1, 3]
    assert payload["used_exceptional_fix"] is True
    payload = run_json("construct", "3", "4")
    assert payload["conditions"] == {"a": True, "b": True, "c": True, "d": True, "ok": True}


# --- verify ---------------------------------------------------------------

def test_verify_single_pair():
    payload = run_json("verify", "2", "3")
    assert payload["m"] == 8
    assert payload["all_ok"] is True
    assert payload["h"] == ["-4", "4", "-2", "5", "-3"]
    assert payload["stabiliser_dim"] == 1


def test_verify_sweep_rows_sorted():
    payload = run_json("verify", "--max-n", "10")
    rows = payload["rows"]
    assert payload["all_ok"] is True
    keys = [(r["n"], r["p"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["all_ok"] for r in rows)


def test_verify_csv_format():
    proc = run_cli("verify", "--max-n", "8", "--format", "csv")
    assert proc.returncode == 0
    text = proc.stdout.decode()
    lines = text.split("\n")
    assert lines[0] == "p,q,n,signature,used_fix,mode,m"
    assert "2,3,5,-,false,rule-based,8" in lines
    assert "\r" not in text  # LF endings only


# --- sigmap ---------------------------------------------------------------

def test_sigmap_json():
    payload = run_json("sigmap", "--max-n", "8")
    pairs = [(r["p"], r["q"]) for r in payload["rows"]]
    assert pairs[:4] == [(1, 2), (1, 3), (1, 4), (2, 3)]
    fibers = payload["fibers"]
    assert [1, 2] in fibers[""]
    for s, ps in payload["shared"].items():
        assert len(ps) > 1


def test_sigmap_bytes_pinned(capsysbinary):
    from meanderslice import cli

    assert cli.main(["sigmap", "--max-n", "80", "--format", "json"]) == 0
    out = capsysbinary.readouterr().out
    # the v1 atlas bytes of every pair with n <= 80
    assert hashlib.md5(out).hexdigest() == "ab052b457f001d45ded3001274c58c03"


def test_sigmap_csv_has_fiber_section():
    text = run_cli("sigmap", "--max-n", "8", "--format", "csv").stdout.decode()
    assert text.startswith("p,q,n,signature,used_fix,mode,m\n")
    assert "signature,count,pairs" in text


# --- text and csv bytes ---------------------------------------------------

@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "--max-n", "12", "--format", "text"], "2e270afa10a6fc34ad575d53d672ba4a"),
        (["verify", "--max-n", "12", "--format", "csv"], "f3bff9fc065b66509cd1f5cf9f33cf80"),
        (["sigmap", "--max-n", "20", "--format", "text"], "ddda3aa16cfd2a981315b72725a7a9ac"),
        (["sigmap", "--max-n", "20", "--format", "csv"], "1a7d31874eb0e6002fa373a9a702cbd2"),
        (["construct", "3", "8"], "1bf588452cb1a600848d3f7b95ea1911"),
        (["meander", "3", "8"], "d56d158fbe8c376ca97150466ffdb8ac"),
        (["verify", "3", "8"], "8da2d2fc23e068b3cc3a628a9774460a"),
        (["meander", "3", "8", "--format", "csv"], "9af0e7048d09c9d63074ed3d9701f66a"),
        (["construct", "3", "8", "--format", "csv"], "1ff1bef4f048e382079a95dc599df376"),
        (["verify", "3", "8", "--format", "csv"], "1ff1bef4f048e382079a95dc599df376"),
        (["diagram", "3", "8"], "a65ec351b8cb5c14e9a107b0c314c49a"),
        (["diagram", "3", "8", "--format", "svg"], "f5397d512aea2b9a7b19e1eb765062b9"),
    ],
)
def test_text_and_csv_bytes_pinned(argv, digest, capsysbinary):
    from meanderslice import cli

    assert cli.main(argv) == 0
    assert hashlib.md5(capsysbinary.readouterr().out).hexdigest() == digest


# --- diagram --------------------------------------------------------------

def test_diagram_ascii_2_3():
    proc = run_cli("diagram", "2", "3", "--format", "ascii")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert out.count(": o ") == 5  # five dots
    lines = out.splitlines()
    assert any(line.startswith("  2:") and "A[" in line for line in lines)
    circled = [i for i, line in enumerate(lines) if "( )" in line]
    assert len(circled) == 2  # nil values at i in {1,3}
    assert "b1" in lines[circled[0]] and "b3" in lines[circled[1]]


def test_diagram_svg_valid_and_deterministic():
    a = run_cli("diagram", "3", "7", "--format", "svg").stdout
    b = run_cli("diagram", "3", "7", "--format", "svg").stdout
    assert a == b
    root = ET.fromstring(a.decode())
    assert root.tag.endswith("svg")


@pytest.mark.parametrize(
    "flag, value",
    [("--format", "csv"), ("--format", "json"), ("--format", "text"), ("--diagram", "svg")],
)
def test_diagram_rejects_table_formats(flag, value):
    # --format ascii|svg is the one way to choose a diagram format
    assert run_cli("diagram", "2", "3", flag, value).returncode == 2


# --- output file, determinism, options -----------------------------------

def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("meander", "2", "3", "--format", "json", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == b""
    payload = json.loads(target.read_text())
    assert payload["phi"] == [4, 2, 1, 5, 3]
    # the file holds exactly the bytes stdout would get
    assert target.read_bytes() == run_cli("meander", "2", "3", "--format", "json").stdout


def test_unwritable_out_is_an_input_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli("meander", "2", "3", "--out", str(target))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("slice: input error: ")
    assert "Traceback" not in proc.stderr.decode()


def test_commands_byte_deterministic():
    for args in (
        ("meander", "3", "5", "--format", "json"),
        ("construct", "4", "5", "--format", "json"),
        ("sigmap", "--max-n", "9", "--format", "csv"),
        ("verify", "--max-n", "8", "--format", "json"),
    ):
        assert run_cli(*args).stdout == run_cli(*args).stdout


def test_slice_jobs_env_changes_no_byte():
    # SLICE_JOBS is not a setting: the sweep gives the same bytes with it set
    env = dict(os.environ, SLICE_JOBS="3")
    a = run_cli("verify", "--max-n", "9", "--format", "json")
    b = run_cli("verify", "--max-n", "9", "--format", "json", env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_optimised_mode_keeps_the_sweep():
    # python -O strips assert statements; no certificate may depend on them
    args = ("verify", "--max-n", "12", "--format", "json")
    plain = run_cli(*args)
    optimised = subprocess.run(
        [sys.executable, "-O", "-m", "meanderslice.cli", *args], capture_output=True
    )
    assert plain.returncode == optimised.returncode == 0
    assert optimised.stdout == plain.stdout


def test_unknown_options_exit_2():
    from meanderslice import cli

    # no command takes --jobs or --diagram
    for args in (
        ["verify", "--max-n", "5", "--jobs", "2"],
        ["verify", "2", "3", "--jobs", "2"],
        ["meander", "2", "3", "--jobs", "2"],
        ["construct", "2", "3", "--jobs", "2"],
        ["diagram", "2", "3", "--jobs", "2"],
        ["sigmap", "--max-n", "5", "--jobs", "2"],
        ["meander", "2", "3", "--diagram", "svg"],
        ["construct", "2", "3", "--diagram", "svg"],
        ["verify", "2", "3", "--diagram", "svg"],
        ["sigmap", "--max-n", "5", "--diagram", "svg"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
        assert exit_info.value.code == 2


# --- JSON writer, parser reuse, output failures --------------------------

def _json_oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _capture_payloads(monkeypatch, cli, argv):
    """Run `cli.main(argv)` and return every payload it hands to the writer."""
    seen = []
    dump = cli._dump_json

    def recording(payload):
        seen.append(payload)
        return dump(payload)

    monkeypatch.setattr(cli, "_dump_json", recording)
    assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "_dump_json", dump)
    return seen


def test_dump_json_matches_json_dumps_on_every_payload(monkeypatch, capsysbinary):
    from meanderslice import cli
    from meanderslice.meander import coprime_pairs

    payloads = []
    for pair in coprime_pairs(30):
        payloads.append(cli._meander_payload(pair))
        payloads.append(cli._construct_payload(pair))
    # the sweep's rows are the single-pair verify payloads: with the
    # stabiliser fields for n <= 20, without them for 21 <= n <= 30
    (sweep,) = _capture_payloads(monkeypatch, cli, ["verify", "--max-n", "30", "--format", "json"])
    assert any("stabiliser_dim" in r for r in sweep["rows"])
    assert any("stabiliser_dim" not in r for r in sweep["rows"])
    payloads.append(sweep)
    payloads.extend(sweep["rows"])
    payloads.extend(_capture_payloads(monkeypatch, cli, ["sigmap", "--max-n", "80", "--format", "json"]))
    capsysbinary.readouterr()
    assert len(payloads) == 2 * 138 + 1 + 138 + 1
    for payload in payloads:
        assert cli._dump_json(payload) == _json_oracle(payload)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [{}],
        {"a": [], "b": {}, "c": [[], {}]},
        [[[]], [[[]]]],
        (1, 2, 3),
        ((), (4,), [5, (6, 7)]),
        [True, 1, False, 0],
        [1, True],
        {"t": True, "f": False, "one": 1, "zero": 0},
        [-1, -(2**64) - 1, 2**64, 2**100, 0],
        -(2**70),
        "",
        'quote " backslash \\ newline \n tab \t bell \x07 nul \x00',
        "non-ASCII: éß≤ \U0001d54a",
        {"kéy \"\\\n": ["v\x1f", {"": ""}]},
        {"b": 1, "a": 2, "B": 3, "é": 4, "aa": 5},
        [[1, 2], [3, "x"], ["y"], [True]],
        {"rows": [{"p": 1, "q": 2, "ok": True}], "image": ["", "-", "+-"]},
    ],
)
def test_dump_json_matches_json_dumps_on_hand_made_values(value):
    from meanderslice import cli

    assert cli._dump_json(value) == _json_oracle(value)


@pytest.mark.parametrize(
    "value, named",
    [
        (1.5, "1.5"),
        ([1, 2, 0.25], "0.25"),
        (None, "None"),
        ({"a": [None]}, "None"),
        ({1: "x"}, "1"),
        ({"a": {"b": 1, 7: 2}}, "7"),
    ],
)
def test_dump_json_rejects_other_values(value, named):
    from meanderslice import cli

    with pytest.raises(TypeError, match=named):
        cli._dump_json(value)


def test_parser_is_built_once_per_process(monkeypatch, tmp_path, capsysbinary):
    import argparse

    from meanderslice import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.main(["meander", "2", "3", "--format", "json"]) == 0
    assert built  # the first call builds the parser and its subparsers
    first = len(built)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["construct", "x", "3"])
    assert exit_info.value.code == 2
    target = tmp_path / "verify.json"
    assert cli.main(["verify", "2", "3", "--format", "json", "--out", str(target)]) == 0
    assert cli.main(["sigmap", "--max-n", "6", "--format", "csv"]) == 0
    assert cli.main(["diagram", "2", "3"]) == 0
    assert len(built) == first
    assert cli.build_parser() is cli.build_parser()
    assert json.loads(target.read_bytes())["all_ok"] is True

    # parse_args fills a fresh Namespace: no value leaks into the next call
    capsysbinary.readouterr()
    assert cli.main(["construct", "2", "3", "--format", "json"]) == 0
    assert cli.main(["construct", "2", "3", "--out", str(tmp_path / "c.txt")]) == 0
    assert cli.main(["construct", "2", "3"]) == 0
    out = capsysbinary.readouterr().out
    fresh = run_cli("construct", "2", "3").stdout
    assert out == run_cli("construct", "2", "3", "--format", "json").stdout + fresh
    assert (tmp_path / "c.txt").read_bytes() == fresh
    assert len(built) == first


class _FullBuffer:
    def write(self, data):
        raise OSError(28, "No space left on device")


class _FullStdout:
    buffer = _FullBuffer()


@pytest.mark.parametrize(
    "argv",
    [
        ["sigmap", "--max-n", "80", "--format", "json"],
        ["construct", "2", "3"],
        ["verify", "--max-n", "6", "--format", "csv"],
    ],
)
def test_stdout_write_failure_is_an_input_error(argv, monkeypatch, capsys):
    from meanderslice import cli

    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "slice: input error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_device_on_stdout_exits_2():
    # stdout buffered, as on a terminal-less run without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (
        ["sigmap", "--max-n", "80", "--format", "json"],  # large: the write fails
        ["construct", "2", "3"],  # small: only the flush fails
    ):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "meanderslice.cli"] + argv,
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
            )
        assert proc.returncode == 2, argv
        assert proc.stderr.decode().startswith("slice: input error: ")
        assert proc.stderr.decode().count("\n") == 1
