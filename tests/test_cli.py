import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gamedim import certificates, cover, eu
from gamedim.cli import main, parse_coalition, run_verification
from gamedim.eu import MEMBERS_2014, N_MEMBERS

REPO = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_members(path, entries):
    lines = ["index,name,population"]
    lines += [f"{i},{name},{pop}" for i, name, pop in entries]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_bulgaria_members(tmp_path):
    # With Bulgaria at 6521109 the reference coalitions still classify,
    # but no transfer certifies {L3,L14}.
    entries = [(i, name, 6521109 if i == 16 else pop) for i, name, pop in MEMBERS_2014]
    return write_members(tmp_path / "bulgaria.csv", entries)


@pytest.fixture()
def council_hg_file(tmp_path, council_h):
    from gamedim.cover import hypergraph_to_json

    path = tmp_path / "council.json"
    path.write_text(json.dumps(hypergraph_to_json(council_h)))
    return str(path)


class TestVerify:
    def test_default_data_verifies(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "conclusion: dimension >= 8" in out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_transcript_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "verify")
        _, second, _ = run(capsys, "verify")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["conclusion"] == "dimension >= 8"
        assert [s["status"] for s in obj["steps"]] == ["PASS"] * 7
        assert any("closed inequality" in note for note in obj["notes"])

    def test_perturbed_members_fail_a_step(self, capsys, tmp_path):
        entries = [(1, "Germany", 80780000 // 2)] + list(MEMBERS_2014[1:])
        path = write_members(tmp_path / "halved.csv", entries)
        code, out, _ = run(capsys, "verify", "--members", path)
        assert code == 1
        assert "FAIL" in out
        assert "not established" in out

    def test_failed_pair_certificate_names_its_edge(self, capsys, tmp_path):
        path = write_bulgaria_members(tmp_path)
        code, out, _ = run(capsys, "verify", "--members", path)
        assert code == 1
        assert out == (
            "council voting rule, dimension lower bound\n"
            "note: total population 506692039; member quota 16 of 28; "
            "population quota 6586996507/20\n"
            "note: the population rule is read as a closed inequality: "
            "20*pop(C) >= 13*total\n"
            "\n"
            "step 1  reference coalitions  PASS  15 losing and 12 winning confirmed\n"
            "step 2  pair certificates     FAIL  {L3,L14}: no transfer of 4 members "
            "makes both halves of {2,3,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,"
            "23,24,25,26,27}, {1,4,6,7,8,9,10,11,12,13,14,15,16,17,18,20,21,22,23,24,"
            "25,26,27,28} winning\n"
            "\n"
            "conclusion: not established (failed at: pair certificates)\n"
        )

    def test_malformed_members_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("index,name,population\n1,Germany\n")
        code, _, err = run(capsys, "verify", "--members", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("index, population", [("1", "80_780_000"), ("\u0661", "80780000")])
    def test_members_numbers_take_ascii_digits_only(self, capsys, tmp_path, index, population):
        entries = [(index, name, population) if i == 1 else (i, name, pop)
                   for i, name, pop in MEMBERS_2014]
        path = write_members(tmp_path / "digits.csv", entries)
        code, out, err = run(capsys, "verify", "--members", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "malformed row" in err and err.count("\n") == 1

    def test_empty_members_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run(capsys, "verify", "--members", str(path)) == (
            2, "", "error: empty member table\n")

    def test_oversized_members_cell_is_a_usage_error(self, capsys, tmp_path):
        # One name past the csv module's default field limit of 131,072.
        entries = [(i, "M" * 131073 if i == 28 else name, pop) for i, name, pop in MEMBERS_2014]
        path = write_members(tmp_path / "long.csv", entries)
        assert run(capsys, "verify", "--members", path) == (
            2, "", "error: member table: field larger than field limit (131072)\n")

    def test_missing_members_file(self, capsys):
        code, _, err = run(capsys, "verify", "--members", "/does/not/exist.csv")
        assert code == 2

    def test_transcript_object(self):
        transcript = run_verification()
        assert transcript.verified
        assert [s.status for s in transcript.steps] == ["PASS"] * 7
        assert transcript.conclusion == "dimension >= 8"

    def test_bundled_table_is_built_once_and_members_builds_its_own(self, capsys, tmp_path,
                                                                    monkeypatch):
        assert eu.default_members() is eu.default_members()
        assert run_verification() == run_verification()
        tables = []
        build = eu.build_eu_game

        def recording(table):
            tables.append(table)
            return build(table)

        monkeypatch.setattr(eu, "build_eu_game", recording)
        path = write_members(tmp_path / "same.csv", MEMBERS_2014)
        assert run(capsys, "verify")[1] == run(capsys, "verify", "--members", path)[1]
        bundled, given = tables
        assert bundled is eu.default_members()
        assert given == bundled and given is not bundled

    def test_each_certificate_built_and_verified_once(self, monkeypatch):
        # `_rules` is the one evaluation behind `contains`, `is_winning` and
        # `classify`: 27 in step 1, one per losing coalition L1..L15 for the
        # pair constructions' input checks, read from the family's memo, and
        # 4 per pair and 6 per triple in `verify_balance`: 27 + 15 + 300 + 30.
        # Each edge is built once, by its kind's construction, and each of
        # the 75 pairs makes one split of its masks.
        counted = {(certificates, "verify_balance"): 80, (certificates, "_pair_certificate"): 61,
                   (certificates, "_anchor_certificate"): 14,
                   (certificates, "_triple_certificate"): 5, (certificates, "_split"): 75,
                   (eu.EuGame, "_rules"): 372}
        calls = dict.fromkeys((name for _, name in counted), 0)
        for owner, name in counted:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        assert run_verification().verified
        assert calls == {name: count for (_, name), count in counted.items()}

    def test_module_stdout_matches_expected_transcript(self):
        # The transcript the benchmark gate compares against, byte for byte.
        expected = (REPO / "perfbench" / "expected_verify.txt").read_bytes()
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-m", "gamedim.cli", "verify"],
                              capture_output=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == expected

    @pytest.mark.parametrize("argv, may_load", [
        (["verify"], set()),
        (["verify", "--format", "json"], {"json"}),
    ])
    def test_replay_loads_only_the_stdlib_it_uses(self, argv, may_load):
        # -S keeps the site directory, whose .pth files may import anything, out.
        code = ("import sys; from gamedim import cli; status = cli.main(sys.argv[1:]); "
                "sys.stderr.write(' '.join(sys.modules)); sys.exit(status)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                              capture_output=True, env=env)
        assert proc.returncode == 0
        if "json" in argv:
            assert json.loads(proc.stdout)["conclusion"] == "dimension >= 8"
        else:
            assert proc.stdout == (REPO / "perfbench" / "expected_verify.txt").read_bytes()
        unused = {"dataclasses", "inspect", "typing", "csv", "json"} - may_load
        assert unused.isdisjoint(proc.stderr.decode().split())

    def test_console_script(self):
        script = shutil.which("gamedim")
        if script is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([script, "verify"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dimension >= 8" in proc.stdout

    def test_console_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["gamedim"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main


class TestClassify:
    def test_full_coalition_wins_outright(self, capsys):
        code, out, _ = run(capsys, "classify", "1-28")
        assert code == 0
        assert "outright rule  (>= 25): yes" in out
        assert "winning: yes" in out

    def test_l15_fails_member_rule(self, capsys):
        code, out, _ = run(capsys, "classify", "L15")
        assert code == 0
        assert "members rule   (>= 16): no" in out
        assert "winning: no" in out

    def test_w12_wins(self, capsys):
        code, out, _ = run(capsys, "classify", "W12", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["winning"] is True
        assert obj["members"] == 20

    @pytest.mark.parametrize("label, expected", [
        ("L1", "coalition: {2,3,5,6,8,9,10,11,12,15,16,17,18,19,20,21,22,23,24,25,26,27,28}\n"
               "members: 23 of 28\n"
               "population: 326387433 (quota 6596415891/20)\n"
               "members rule   (>= 16): yes\n"
               "population rule (>= 65%): no\n"
               "outright rule  (>= 25): no\n"
               "winning: no\n"),
        ("L15", "coalition: {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}\n"
                "members: 15 of 28\n"
                "population: 464670839 (quota 6596415891/20)\n"
                "members rule   (>= 16): no\n"
                "population rule (>= 65%): yes\n"
                "outright rule  (>= 25): no\n"
                "winning: no\n"),
        ("W12", "coalition: {2,3,4,5,6,8,9,12,15,16,19,20,21,22,23,24,25,26,27,28}\n"
                "members: 20 of 28\n"
                "population: 354586588 (quota 6596415891/20)\n"
                "members rule   (>= 16): yes\n"
                "population rule (>= 65%): yes\n"
                "outright rule  (>= 25): no\n"
                "winning: yes\n"),
    ])
    def test_text_report_pinned(self, capsys, label, expected):
        code, out, _ = run(capsys, "classify", label)
        assert code == 0
        assert out == expected

    def test_mixed_ranges(self):
        c = parse_coalition("1,4-6,28")
        assert c.members == (1, 4, 5, 6, 28)

    def test_bad_coalition_string_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "0-3")
        assert code == 2
        code, _, err = run(capsys, "classify", "L99")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("1-", "bad member range '1-'"),
        ("2,-4", "bad member range '-4'"),
        ("1-2-3", "bad member range '1-2-3'"),
        ("x", "bad member index 'x'"),
        ("1, 2x ,3", "bad member index '2x'"),
        # `int` takes these; a member index is ASCII digits only.
        ("1_0", "bad member index '1_0'"),
        ("+3", "bad member index '+3'"),
        ("\u0661", "bad member index '\u0661'"),
        ("\u0661-3", "bad member range '\u0661-3'"),
        ("1-+3", "bad member range '1-+3'"),
        ("L\u0661", "unknown coalition label 'L\u0661'"),
        ("5-3", "empty range '5-3'"),
    ])
    def test_malformed_part_is_named(self, capsys, text, message):
        assert run(capsys, "classify", text) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, index", [
        ("3-" + "9" * 30, int("9" * 30)),
        ("0-3", 0),
    ])
    def test_range_bounds_checked_before_expansion(self, capsys, text, index):
        code, out, err = run(capsys, "classify", text)
        assert (code, out) == (2, "")
        assert err == f"error: member index {index} out of range 1..28\n"

    def test_huge_range_builds_no_list(self):
        # 10^8 indices do not fit under a 600 MB address-space limit.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-m", "gamedim.cli", "classify", "1-100000000"],
                              capture_output=True, env=env, preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stderr == b"error: member index 100000000 out of range 1..28\n"


class TestSeparate:
    def test_not_separable_instance(self, capsys, tmp_path):
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps({
            "n": 4,
            "winning_constraints": [[1, 3], [2, 4]],
            "losing_targets": [[1, 2], [3, 4]],
        }))
        code, out, _ = run(capsys, "separate", str(path))
        assert code == 0
        assert out == (
            "NOT SEPARABLE\n"
            "nonnegative combination 1/4 * [weight({1,3}) >= quota] + "
            "1/4 * [weight({2,4}) >= quota] + 1/4 * [weight({1,2}) <= quota - 1] + "
            "1/4 * [weight({3,4}) <= quota - 1] gives the contradiction 0 <= -1/2\n"
        )

    def test_separable_instance_prints_witness(self, capsys, tmp_path):
        path = tmp_path / "five.json"
        path.write_text(json.dumps({
            "n": 5,
            "winning_constraints": [[1, 2, 3], [3, 4, 5], [1, 4]],
            "losing_targets": [[1, 2, 5], [2, 3, 4]],
        }))
        code, out, _ = run(capsys, "separate", str(path))
        assert code == 0
        assert out == "SEPARABLE\nweights: 3 0 2 2 1\nquota: 5\n"

    def test_malformed_instance(self, capsys, tmp_path):
        # The decoder's message, after the file it is about.
        path = tmp_path / "bad.json"
        for data, message in [
            (b"{not json", "Expecting property name enclosed in double quotes: "
                           "line 1 column 2 (char 1)"),
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"),
        ]:
            path.write_bytes(data)
            assert run(capsys, "separate", str(path)) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("command", [("separate",), ("cover", "solve"), ("certs", "check")])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


def assert_usage_error(capsys, tmp_path, payload, *command):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestMalformedShapes:
    @pytest.mark.parametrize("payload", [
        {"n": 3, "winning_constraints": [[1]], "losing_targets": 5},
        {"n": 3, "winning_constraints": [1, 2], "losing_targets": [[2]]},
        {"n": 3, "winning_constraints": [[1, "a"]], "losing_targets": [[2]]},
        {"n": 3, "winning_constraints": [[1, 2.0]], "losing_targets": [[2]]},
        {"n": 3, "winning_constraints": [[True, 2]], "losing_targets": [[3]]},
        {"n": True, "winning_constraints": [], "losing_targets": []},
    ])
    def test_separate(self, capsys, tmp_path, payload):
        assert_usage_error(capsys, tmp_path, payload, "separate")

    @pytest.mark.parametrize("payload", [
        {"nodes": 3, "edges": 5},
        {"nodes": 3, "edges": [[1, "x"]]},
        {"nodes": 3, "edges": [[1, 2.0]]},
        {"nodes": 3, "edges": [3]},
        {"nodes": True, "edges": []},
    ])
    def test_cover_solve(self, capsys, tmp_path, payload):
        assert_usage_error(capsys, tmp_path, payload, "cover", "solve")

    @pytest.mark.parametrize("payload, message", [
        ({"nodes": True, "edges": []}, "node count must be an int, got True"),
        ({"nodes": 3, "edges": [[1, 2.0]]}, "edge node 2.0 is not an integer"),
    ])
    def test_cover_solve_names_the_bad_node(self, capsys, tmp_path, payload, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "cover", "solve", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("nodes", [10**10, 10**30], ids=["1e10", "1e30"])
    def test_cover_solve_rejects_more_nodes_than_a_mask_holds(self, capsys, tmp_path,
                                                              monkeypatch, nodes):
        # 10**30 nodes overflowed in a traceback; 10**10 would have packed
        # masks of 10**10 bits.  Both are refused before any is built.
        def unbuilt(n):
            raise AssertionError(f"PackedMasks({n}) built")

        monkeypatch.setattr(cover, "PackedMasks", unbuilt)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": []}))
        assert run(capsys, "cover", "solve", str(path)) == (
            2, "", f"error: node count must be in 0..64, got {nodes}\n")

    @pytest.mark.parametrize("payload", [
        {"losing": [[1]], "winning": 7},
        {"losing": [[1, "2"]], "winning": [[1, 2]]},
        {"losing": [1], "winning": [[1, 2]]},
    ])
    def test_certs_check(self, capsys, tmp_path, payload):
        assert_usage_error(capsys, tmp_path, payload, "certs", "check")


class TestCerts:
    def test_bundled_certificate_checks(self, capsys, tmp_path, family):
        from gamedim.certificates import certificate_to_json

        cert = family.certificates[frozenset({1, 5})]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(certificate_to_json(cert)))
        code, out, _ = run(capsys, "certs", "check", str(path))
        assert code == 0
        assert "verifies" in out

    def test_tampered_certificate_rejected(self, capsys, tmp_path, family):
        from gamedim.certificates import certificate_to_json

        payload = certificate_to_json(family.certificates[frozenset({1, 5})])
        payload["winning"] = payload["winning"][:1]  # drop one winner
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "certs", "check", str(path))
        assert code == 1
        assert "REJECTED" in out


class TestCover:
    def test_library_warning_is_one_stderr_line(self, capsys, tmp_path):
        path = tmp_path / "redundant.json"
        path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [1, 2, 3]]}))
        assert run(capsys, "cover", "solve", str(path)) == (
            0, "minimum cover: 2 parts\n  1 3\n  2 3\n",
            "warning: dropping redundant edge [1, 2, 3]: it contains a smaller edge\n")
        # the library still raises its UserWarning
        with pytest.warns(UserWarning, match=r"^dropping redundant edge \[1, 2, 3\]"):
            cover.hypergraph_from_json(json.loads(path.read_text()))

    def test_warning_stays_one_line_when_warnings_are_errors(self, tmp_path):
        path = tmp_path / "redundant.json"
        path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [1, 2, 3]]}))
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONWARNINGS="error")
        proc = subprocess.run([sys.executable, "-m", "gamedim.cli", "cover", "solve", str(path)],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, b"minimum cover: 2 parts\n  1 3\n  2 3\n")
        assert proc.stderr == (
            b"warning: dropping redundant edge [1, 2, 3]: it contains a smaller edge\n")

    def test_solve_reports_eight(self, capsys, council_hg_file):
        code, out, _ = run(capsys, "cover", "solve", council_hg_file)
        assert code == 0
        assert "minimum cover: 8 parts" in out

    def test_solve_with_impossible_bound(self, capsys, council_hg_file):
        code, out, _ = run(capsys, "cover", "solve", council_hg_file, "--k", "7")
        assert code == 1
        assert "no 7-cover exists" in out

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_solve_rejects_nonpositive_k(self, capsys, council_hg_file, k):
        code, out, err = run(capsys, "cover", "solve", council_hg_file, "--k", k)
        assert code == 2
        assert out == ""
        assert err == f"error: k must be at least 1, got {k}\n"

    # `int` takes the first two; k, like every other typed number, is ASCII digits only.
    @pytest.mark.parametrize("command", ["solve", "refute"])
    @pytest.mark.parametrize("k", ["\u0667", " +7_0", "7.0", "-"])
    def test_k_is_ascii_digits(self, capsys, council_hg_file, command, k):
        assert run(capsys, "cover", command, council_hg_file, "--k", k) == (
            2, "", f"error: k must be ASCII digits, got {k!r}\n")

    def test_refute_rejects_nonpositive_k(self, capsys, council_hg_file):
        assert run(capsys, "cover", "refute", council_hg_file, "--k", "-3") == (
            2, "", "error: k must be at least 1, got -3\n")

    def test_refute_seven(self, capsys, council_hg_file):
        code, out, _ = run(capsys, "cover", "refute", council_hg_file, "--k", "7")
        assert code == 0
        assert "no 7-cover exists" in out
        assert "2 dual weight certificates" in out

    def test_refute_eight_finds_cover(self, capsys, council_hg_file):
        code, out, _ = run(capsys, "cover", "refute", council_hg_file, "--k", "8")
        assert code == 1
        assert "found a 8-cover" in out

    def test_duals_verify(self, capsys, council_hg_file):
        code, out, _ = run(capsys, "cover", "duals", council_hg_file)
        assert code == 0
        assert out.count("verified") == 2

    def test_duals_derived_for_a_single_edge(self, capsys, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[1, 2]]}))
        code, out, _ = run(capsys, "cover", "duals", str(path))
        assert code == 0
        assert out == "weights (1, 1) bound 1 excluded none total 2: verified\n"

    def test_duals_edgeless_has_nothing_to_refute(self, capsys, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"nodes": 3, "edges": []}))
        code, out, _ = run(capsys, "cover", "duals", str(path))
        assert code == 1
        assert out == "nothing to refute: one part covers every node\n"

    def test_duals_without_nodes_needs_no_part(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"nodes": 0, "edges": []}))
        code, out, _ = run(capsys, "cover", "duals", str(path))
        assert code == 1
        assert out == "nothing to refute: there are no nodes to cover\n"

    def test_refute_confirmed_by_a_derived_dual(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
        code, out, _ = run(capsys, "cover", "refute", str(path), "--k", "2")
        assert code == 0
        assert out == ("no 2-cover exists (exhaustive search)\n"
                       "confirmed by 1 dual weight certificate\n")


class TestExport:
    def test_hypergraph_export(self, capsys, tmp_path):
        path = tmp_path / "hg.json"
        code, _, _ = run(capsys, "export", "hypergraph", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["nodes"] == 15
        assert len(obj["edges"]) == 80

    def test_maximal_sets_export(self, capsys, tmp_path):
        path = tmp_path / "max.json"
        code, _, _ = run(capsys, "export", "maximal-sets", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert len(obj["sets"]) == 21

    def test_certs_export(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, _, _ = run(capsys, "export", "certs", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert len(obj["certificates"]) == 80
        assert obj["n"] == N_MEMBERS

    def test_export_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "export", "certs", str(a))
        run(capsys, "export", "certs", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("table", ["bundled", "--members"])
    @pytest.mark.parametrize("argv, digest", [
        (("export", "certs"),
         "39a07a50e5fcc4517ea949f194b2cc7cb4b64557263d0e661ee319f204504eee"),
        (("export", "hypergraph"),
         "669098709bd920991710bb78a3c825d3ed3f636e03f3cb3c5aca5825da8c464c"),
        (("export", "maximal-sets"),
         "48909535b217b42c740546fa19cd321b7ba1c4698c3c083246cbe9b938edb24e"),
        (("verify", "--format", "json"),
         "90a7e48bba5efad667c24050c23dbeaae8c2b5c491e4dcf4efa7f7131077ac65"),
    ])
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, digest, table):
        # A refactor of the constructions must leave every exported byte as
        # it is, whether the 2014 table is bundled or read from a file.
        extra = []
        if table == "--members":
            extra = ["--members", write_members(tmp_path / "2014.csv", MEMBERS_2014)]
        if argv[0] == "export":
            path = tmp_path / "out.json"
            code, _, _ = run(capsys, *argv, str(path), *extra)
            data = path.read_bytes()
        else:
            code, out, _ = run(capsys, *argv, *extra)
            data = out.encode()
        assert code == 0
        assert hashlib.sha256(data).hexdigest() == digest

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "export", "hypergraph", str(tmp_path / "no" / "dir.json"))
        assert code == 2

    def test_failed_certificate_is_a_usage_error(self, capsys, tmp_path):
        members = write_bulgaria_members(tmp_path)
        path = tmp_path / "hg.json"
        code, out, err = run(capsys, "export", "hypergraph", str(path), "--members", members)
        assert code == 2
        assert out == ""
        assert err == (
            "error: {L3,L14}: no transfer of 4 members makes both halves of "
            "{2,3,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27}, "
            "{1,4,6,7,8,9,10,11,12,13,14,15,16,17,18,20,21,22,23,24,25,26,27,28} "
            "winning\n"
        )
        assert not path.exists()

    @pytest.mark.parametrize("doubled, message", [
        # France's population doubled: L1 wins, which the first edge's first
        # input check reports.
        (2, "{L1,L5}: first coalition "
            "{2,3,5,6,8,9,10,11,12,15,16,17,18,19,20,21,22,23,24,25,26,27,28} is winning"),
        # Member 15's doubled: L1 still passes, and L8 wins.
        (15, "{L1,L8}: second coalition "
             "{2,3,4,7,8,9,10,11,12,13,14,15,17,19,20,21,22,23,24,25,26,27,28} is winning"),
    ])
    def test_input_check_failure_names_the_first_failing_edge(self, capsys, tmp_path,
                                                               doubled, message):
        entries = [(i, name, 2 * pop if i == doubled else pop) for i, name, pop in MEMBERS_2014]
        members = write_members(tmp_path / "doubled.csv", entries)
        path = tmp_path / "certs.json"
        assert run(capsys, "export", "certs", str(path), "--members", members) == (
            2, "", f"error: {message}\n")
        assert not path.exists()
