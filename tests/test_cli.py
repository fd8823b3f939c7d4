import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit.fusion
from fusionkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env.pop("FUSIONKIT_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_rootdata_a1(capsys):
    code, out = run(capsys, "rootdata", "A1")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == [2]
    assert doc["weyl_order"] == 2
    assert doc["cartan_matrix"] == [[2]]


def test_rootdata_a2_tsv(capsys):
    code, out = run(capsys, "rootdata", "A2", "--format", "tsv")
    assert code == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["dual_coxeter"] == "3"
    assert fields["theta"] == "1,1"


def test_rootdata_parse_failure(capsys):
    code, _ = run(capsys, "rootdata", "Z9")
    assert code == 2


def test_rootdata_of_an_infinite_type_is_a_parse_error(capsys):
    code = main(["rootdata", "E9"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: E9 is not a finite type\n")


def test_weyl_cap_applies_only_where_w_is_listed(capsys, tmp_path):
    for name in ("E7", "E8"):
        code, out = run(capsys, "rootdata", name)
        assert code == 0 and json.loads(out)["weyl_order"] > 2_000_000
    code, out = run(capsys, "fusion", "E7", "--level", "1", "--cache-dir", str(tmp_path))
    assert code == 0 and len(json.loads(out)["entries"]) == 4  # the Z2 fusion ring
    # Racah-Speiser lists W, so the oracle and the tensor product stay refused
    w1 = "1,0,0,0,0,0,0"
    for argv in (("fusion", "E7", "--level", "1", "--backend", "kacwalton"),
                 ("tensor", "E7", w1, w1)):
        assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (4, "")


def test_weights_output(capsys, tmp_path):
    code, out = run(capsys, "weights", "A1", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "A1"
    assert [e["key"] for e in doc["entries"]] == [[-3], [-1], [1], [3]]
    code2, out2 = run(capsys, "weights", "A1", "3", "--cache-dir", str(tmp_path))
    assert code2 == 0 and out2 == out


def test_tensor_tsv(capsys):
    code, out = run(capsys, "tensor", "A1", "2", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["0\t1", "2\t1", "4\t1"]


def test_tensor_weight_parse_error(capsys):
    code, _ = run(capsys, "tensor", "A2", "1,0", "1")
    assert code == 2
    code, _ = run(capsys, "tensor", "A2", "1,0", "1,x")
    assert code == 2


def test_tensor_precondition(capsys):
    # "--" ends option parsing so negative coordinates pass through
    code, _ = run(capsys, "tensor", "A2", "1,0", "--", "-1,0")
    assert code == 3


@pytest.mark.parametrize("argv, weight", [
    (("weights", "A2", "-1,0"), "(-1, 0)"),
    (("weights", "A2", "1,-1"), "(1, -1)"),
    (("weights", "A1", "-1"), "(-1,)"),
    (("tensor", "A2", "1,0", "-1,0"), "(-1, 0)"),
    (("tensor", "A2", "-1,0", "1,0"), "(-1, 0)"),
    (("tensor", "A2", "-1,0", "--format", "tsv", "1,0"), "(-1, 0)"),
    (("fusion", "A2", "--level", "1", "-1,0", "0,0", "0,0"), "(-1, 0)"),
])
def test_a_weight_starting_with_a_minus_is_read_as_a_weight(capsys, argv, weight):
    """Every command refuses a non-dominant weight the same way, whatever its first sign."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {weight} is not dominant\n")


@pytest.mark.parametrize("argv", [
    ("weights", "A2"), ("weights", "A2", "1,0", "0,1"), ("tensor", "A2", "1,0"),
    ("tensor", "A2", "1,0", "0,1", "1,1"), ("fusion", "A2", "--level", "1", "1,0"),
    ("rootdata", "A2", "1,0"), ("weights", "A2", "1,0", "--bogus"),
])
def test_a_wrong_number_of_weights_or_an_unknown_option_is_a_parse_error(capsys, argv):
    assert run(capsys, *argv) == (2, "")


def test_fusion_full_table(capsys, tmp_path):
    code, out = run(capsys, "fusion", "A1", "--level", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 1
    keys = {tuple(tuple(w) for w in e["key"]) for e in doc["entries"]}
    assert (((1,), (1,), (0,))) in keys
    assert all(e["value"] == 1 for e in doc["entries"])
    assert len(doc["entries"]) == 4


def test_fusion_triple_after_options(capsys, tmp_path):
    code, out = run(
        capsys, "fusion", "A2", "--level", "1", "--cache-dir", str(tmp_path),
        "1,0", "1,0", "0,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0]["value"] == 1


def test_fusion_backend_all_agreement(capsys):
    code, out = run(capsys, "fusion", "A2", "--level", "1", "--backend", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert all(e["agreement"] for e in doc["entries"])
    assert len(doc["entries"]) == 27


def test_fusion_level_violation_exit_code(capsys):
    code, _ = run(capsys, "fusion", "A1", "--level", "1", "2,", "1,", "1,")
    assert code == 2  # malformed weight first
    code, _ = run(capsys, "fusion", "A1", "--level", "1", "2", "1", "1")
    assert code == 3


def test_fusion_cap_exit_code(capsys):
    code, _ = run(
        capsys, "fusion", "A2", "--level", "4", "--backend", "fz",
        "1,1", "1,1", "1,1", "--max-fz-dim", "10",
    )
    assert code == 4


def test_fusion_deterministic_bytes(capsys, tmp_path):
    _, first = run(capsys, "fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path))
    _, second = run(capsys, "fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path))
    assert first == second


def test_unusable_cache_dir_leaves_the_table_uncached(capsys, tmp_path):
    """A --cache-dir that is a regular file cannot hold documents; the table still prints."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    good = run(capsys, "fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path / "cache"))
    assert main(["fusion", "A2", "--level", "2", "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and (0, captured.out) == good
    assert blocker.read_text() == ""


def test_verify_known_suites(capsys):
    code, out = run(capsys, "verify", "axioms", "--type", "A1", "--level", "3")
    assert code == 0
    assert "axioms: PASS" in out
    code, out = run(capsys, "verify", "three-way", "--type", "A2", "--level", "1")
    assert code == 0
    assert "three-way: PASS" in out
    code, out = run(capsys, "verify", "multiplicity", "--type", "G2")
    assert code == 0
    assert "multiplicity: PASS" in out


@pytest.mark.parametrize("suite, canonical, spellings, level", [
    ("prv", "A1", ("a1", " A1 "), ()),
    ("three-way", "A2", ("a2", " A2"), ("--level", "1")),
    ("axioms", "A1", ("a1", "A1 "), ("--level", "3")),
    ("multiplicity", "G2", ("g2", " g2 "), ()),
])
def test_verify_type_takes_every_spelling_the_other_commands_take(capsys, suite, canonical,
                                                                   spellings, level):
    code, expect = run(capsys, "verify", suite, "--type", canonical, *level)
    assert code == 0 and expect.endswith(" 0 failures)\n")
    for spelling in spellings:
        assert run(capsys, "verify", suite, "--type", spelling, *level) == (0, expect)


@pytest.mark.parametrize("argv, code", [
    (("three-way", "--type", "E9"), 2),  # no such type
    (("three-way", "--type", "b2"), 3),  # a type outside the sweep
])
def test_verify_type_outside_a_sweep_is_still_refused(capsys, argv, code):
    assert run(capsys, "verify", *argv) == (code, "")

def test_verify_failures_print_ten_witnesses_and_a_count_of_the_rest(capsys, monkeypatch):
    from fusionkit.verify import CLI_SUITES, SuiteReport

    def failing():
        report = SuiteReport("stability")
        for i in range(15):
            report.check(i >= 12, f"witness {i}")
        return report

    monkeypatch.setitem(CLI_SUITES, "stability", failing)
    code, out = run(capsys, "verify", "stability")
    assert code == 1
    assert out.splitlines() == ["stability: FAIL (15 checks, 12 failures)",
                                *(f"  witness {i}" for i in range(10)), "  ... 2 more"]


def test_suite_report_counts_checks_and_keeps_failures_in_order():
    from fusionkit.verify import SuiteReport

    report = SuiteReport("axioms")
    assert (report.name, report.checks, report.failures, report.passed) == ("axioms", 0, [], True)
    assert report.summary() == "axioms: PASS (0 checks, 0 failures)"
    report.check(True, lambda: pytest.fail("a passing check must not describe itself"))
    report.check(False, lambda: "first")
    report.check(False, 7)
    assert (report.checks, report.failures, report.passed) == (3, ["first", "7"], False)
    assert report.summary() == "axioms: FAIL (3 checks, 2 failures)"
    assert SuiteReport("axioms").failures is not report.failures


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "nope")
    assert code == 2


@pytest.mark.parametrize("args, named", [
    (("three-way", "--type", "B2"), "--type B2"),
    (("three-way", "--level", "9"), "--level 9"),
    (("prv", "--type", "G2"), "--type G2"),
    (("axioms", "--type", "A2", "--level", "7"), "--type A2 --level 7"),
    (("axioms", "--type", "A1", "--level", "0"), "--type A1 --level 0"),
    (("multiplicity", "--type", "E8"), "--type E8"),
])
def test_verify_with_no_matching_checks_is_a_precondition_error(capsys, args, named):
    """A filter that selects nothing exits 3 and names itself instead of passing 0 checks."""
    code = main(["verify", *args])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("suite", ["lemmas", "sl2-closed-form", "stability"])
@pytest.mark.parametrize("option", [("--type", "G2"), ("--level", "2")])
def test_verify_filter_a_suite_ignores_is_a_parse_error(capsys, suite, option):
    code, out = run(capsys, "verify", suite, *option)
    assert code == 2 and out == ""


def test_verify_multiplicity_takes_no_level(capsys):
    code, out = run(capsys, "verify", "multiplicity", "--level", "2")
    assert code == 2 and out == ""


@pytest.mark.parametrize("option", [
    ("--max-dim", "1"), ("--max-fz-dim", "1"), ("--max-weyl", "1"), ("--format", "tsv"),
    ("--cache-dir", "x"),
])
def test_verify_takes_no_table_options(capsys, option):
    code, out = run(capsys, "verify", "three-way", "--type", "A2", "--level", "1", *option)
    assert code == 2 and out == ""


def test_fusion_requires_zero_or_three_weights(capsys):
    code, _ = run(capsys, "fusion", "A1", "--level", "1", "1")
    assert code == 2


@pytest.mark.parametrize("backend", ["walton", "kacwalton", "fz"])
def test_fusion_single_backend_values_agree(capsys, backend, tmp_path):
    code, out = run(
        capsys, "fusion", "A1", "--level", "2", "--backend", backend,
        "--cache-dir", str(tmp_path), "1", "1", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0]["value"] == 1


def test_fusion_accepts_double_dash_before_weights(capsys, tmp_path):
    plain = run(capsys, "fusion", "A2", "--level", "1", "--cache-dir", str(tmp_path),
                "1,0", "1,0", "0,1")
    dashed = run(capsys, "fusion", "A2", "--level", "1", "--cache-dir", str(tmp_path),
                 "--", "1,0", "1,0", "0,1")
    assert dashed == plain and plain[0] == 0
    code, _ = run(capsys, "fusion", "A1", "--level", "1", "--", "-1", "1", "0")
    assert code == 3


@pytest.mark.parametrize("option", ["--max-dim", "--max-fz-dim"])
@pytest.mark.parametrize("argv", [("fusion", "A1", "--level", "1"), ("weights", "A1", "1")])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_caps_must_be_positive_integers(capsys, tmp_path, option, argv, value):
    code = main([*argv, option, value, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"argument {option}: '{value}' is not a positive integer" in captured.err


@pytest.mark.parametrize("option", ["--max-dim", "--max-fz-dim"])
@pytest.mark.parametrize("value", ["+5", " 5"])
def test_signed_and_padded_caps_read_as_level_does(capsys, tmp_path, option, value):
    argv = ["fusion", "A1", "--level", "1", "--cache-dir", str(tmp_path)]
    got = run(capsys, *argv, option, value)
    assert got[0] == 0 and got == run(capsys, *argv, option, "5")

@pytest.mark.parametrize("value", ["1_0", "\u0663"])  # int() reads these as 10 and 3
@pytest.mark.parametrize("argv, named", [
    (("weights", "A2", "{},0", "--cache-dir", "{dir}"), "weight '{},0' has a non-integer"),
    (("fusion", "A2", "--level", "{}", "--cache-dir", "{dir}"), "argument --level: '{}' is not"),
    (("verify", "three-way", "--level", "{}"), "argument --level: '{}' is not an integer"),
    (("weights", "A2", "1,0", "--max-dim", "{}", "--cache-dir", "{dir}"),
     "argument --max-dim: '{}' is not"),
])
def test_integer_arguments_are_ascii_digits_without_separators(capsys, tmp_path, argv, named,
                                                               value):
    code = main([a.format(value, dir=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named.format(value) in captured.err


def test_signed_and_padded_weight_coordinates_keep_their_meaning(capsys):
    assert run(capsys, "weights", "A2", " +1,0 ", "--format", "tsv") == \
        run(capsys, "weights", "A2", "1,0", "--format", "tsv")


@pytest.mark.parametrize("jobs", ["2", "0", "-3"])
def test_jobs_option_is_a_parse_error(capsys, tmp_path, jobs):
    """Tables are built in one process; there is no --jobs option."""
    code, out = run(capsys, "fusion", "A2", "--level", "1", "--jobs", jobs,
                    "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""


def test_weights_respects_max_dim(capsys, tmp_path):
    code, out = run(capsys, "weights", "A1", "2000", "--max-dim", "10",
                    "--cache-dir", str(tmp_path))
    assert code == 4 and out == ""


def test_tensor_respects_max_dim(capsys):
    code, out = run(capsys, "tensor", "A2", "5,5", "5,5", "--max-dim", "10")
    assert code == 4 and out == ""


def test_kacwalton_table_respects_max_dim(capsys):
    code, out = run(capsys, "fusion", "A2", "--level", "3", "--backend", "kacwalton",
                    "--max-dim", "5")
    assert code == 4 and out == ""


@pytest.mark.parametrize("name, k", [("A1", 10**9), ("A2", 1500), ("E8", 10**6)])
def test_table_at_a_huge_level_is_refused_before_its_alcove_is_listed(
        capsys, tmp_path, monkeypatch, name, k):
    monkeypatch.setattr(fusionkit.fusion, "level_alcove", None)  # listing would exit 1
    code, out = run(capsys, "fusion", name, "--level", str(k), "--cache-dir", str(tmp_path))
    assert code == 4 and out == ""


def test_max_dim_is_checked_before_the_cache(capsys, tmp_path):
    args = ("fusion", "A2", "--level", "3", "--cache-dir", str(tmp_path))
    assert run(capsys, *args, "--max-dim", "5") == (4, "")  # cold
    code, out = run(capsys, *args)
    assert code == 0 and out
    assert run(capsys, *args, "--max-dim", "5") == (4, "")  # warm


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("name, k", [("A2", 2), ("B2", 1), ("G2", 1)])
def test_oracle_tables_print_the_walton_bytes(capsys, tmp_path, name, k, fmt):
    outputs = {
        backend: run(capsys, "fusion", name, "--level", str(k), "--backend", backend,
                     "--format", fmt, "--cache-dir", str(tmp_path))
        for backend in ("walton", "kacwalton", "fz")
    }
    assert outputs["walton"][0] == 0 and outputs["walton"][1]
    assert outputs["kacwalton"] == outputs["walton"] == outputs["fz"]


@pytest.mark.parametrize("name, k", [("A2", 2), ("B2", 1), ("G2", 1)])
def test_fusion_backend_all_table_agrees(capsys, name, k):
    code, out = run(capsys, "fusion", name, "--level", str(k), "--backend", "all")
    doc = json.loads(out)
    assert code == 0 and doc["agreement"] is True
    assert all(e["agreement"] and e["fz"] is not None for e in doc["entries"])


def test_fusion_backend_all_marks_capped_fz_rows(capsys):
    code, out = run(capsys, "fusion", "A2", "--level", "2", "--backend", "all",
                    "--max-fz-dim", "30", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 6 ** 3
    capped = [r for r in rows if r[3] == "-"]
    assert len(capped) == 3 * 3 * 6  # lam and mu both of dimension 6 or 8
    assert all(r[1] == r[2] and r[4] == "true" for r in rows)


def test_fz_table_over_the_cap_exits_before_any_output(capsys):
    code, out = run(capsys, "fusion", "A2", "--level", "2", "--backend", "fz",
                    "--max-fz-dim", "20")
    assert code == 4 and out == ""


def test_optimised_interpreter_prints_the_same_bytes(tmp_path):
    """The invariant checks are exceptions, not asserts, so -O changes nothing."""
    env = _src_env()
    outputs = []
    for flags in ([], ["-O"]):
        cache_dir = tmp_path / f"cache{len(flags)}"
        documents = []
        for _ in ("cold", "warm"):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "fusionkit.cli", "fusion", "A2", "--level", "2",
                 "--cache-dir", str(cache_dir)],
                capture_output=True, env=env, cwd=tmp_path, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
            (path,) = cache_dir.glob("*.json")
            documents.append(path.stat().st_ino)
        # a miss would have replaced the document with a new file
        assert documents[0] == documents[1]
    assert outputs[0] and outputs.count(outputs[0]) == 4


def test_a_reader_closing_stdout_early_is_not_an_internal_error(tmp_path):
    """`fusion A2 --level 6 | head -1` exits quietly instead of with status 1."""
    env = _src_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "fusionkit.cli", "fusion", "A2", "--level", "6",
         "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=300)
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == b"" and code != 1


@pytest.mark.parametrize("module, absent", [
    ("fusionkit.cli", ("dataclasses", "inspect", "fusionkit.verify")),
    ("fusionkit", ("dataclasses",)),
])
def test_a_fresh_import_loads_no_dataclasses_and_no_verify_suites(tmp_path, module, absent):
    """Start-up: a table process compiles only the table engine; verify loads for `verify`."""
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             f"print(sorted((set(sys.modules) - before) & {set(absent)!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv, code, out", [
    (("sl2-closed-form",), 0, "sl2-closed-form: PASS (754 checks, 0 failures)\n"),
    (("multiplicity", "--level", "2"), 2, ""),  # a filter the suite does not take
])
def test_verify_in_a_fresh_process_loads_its_suites_itself(tmp_path, argv, code, out):
    proc = subprocess.run([sys.executable, "-m", "fusionkit.cli", "verify", *argv],
                          capture_output=True, text=True, env=_src_env(), cwd=tmp_path,
                          timeout=300)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert ("takes no --level" in proc.stderr) == (code == 2)


def test_no_assert_statements_in_the_library():
    """Invariant checks must survive python -O, so the library raises instead of asserting."""
    package = Path(__file__).resolve().parents[1] / "src" / "fusionkit"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name} asserts on lines {found}"


@pytest.mark.parametrize("argv", [
    ("A2", "--level", "2", "1,0", "0,1", "1,1"),
    ("A1", "--level", "3", "1", "2", "1", "--backend", "kacwalton"),
    ("A2", "--level", "2"),
    ("C3", "--level", "1"),
    ("A2", "--level", "2", "--backend", "all", "--max-fz-dim", "20"),
    ("A2", "--level", "2", "2,0", "2,0", "0,0", "--backend", "all", "--max-fz-dim", "10"),
    ("B2", "--level", "1", "1,0", "0,1", "0,1", "--backend", "all"),
], ids=["triple", "triple-rank-1", "table", "table-rank-3", "all-table-fz-null",
        "all-triple-fz-null", "all-triple"])
def test_fusion_json_is_the_indented_sorted_encoding(capsys, tmp_path, argv):
    """The fusion entries are filled into templates; the bytes are those of json.dumps."""
    code, out = run(capsys, "fusion", *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if "all" in argv and "--max-fz-dim" in argv:
        assert any(entry["fz"] is None for entry in doc["entries"])
