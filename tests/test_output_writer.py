"""Every output goes through ``util.open_output``: written over the old bytes
in place, then cut to length."""
import ast
import os
import stat
from pathlib import Path

import pytest

import eprsim
from eprsim.cli import main
from eprsim.util import open_output


def write(path, text):
    with open_output(path) as fp:
        fp.write(text)


def test_a_longer_file_rewritten_shorter_is_cut(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("x" * 5000)
    write(path, "short\n")
    assert path.read_bytes() == b"short\n"


def test_a_new_file_holds_exactly_the_text_as_utf8(tmp_path):
    path = tmp_path / "new.txt"
    write(path, "é,λ\n")
    assert path.read_bytes() == "é,λ\n".encode("utf-8")


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_mid_write_leaves_only_the_written_prefix(tmp_path, error):
    path = tmp_path / "out.txt"
    path.write_text("old " * 2000)
    with pytest.raises(error):
        with open_output(path) as fp:
            fp.write("new prefix")
            raise error
    assert path.read_bytes() == b"new prefix"


def test_a_rewrite_keeps_the_inode_and_its_hard_links(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("first version, longer than the second\n")
    other = tmp_path / "other.txt"
    os.link(path, other)
    before = path.stat().st_ino
    write(path, "second\n")
    assert path.stat().st_ino == before
    assert path.stat().st_nlink == 2
    assert other.read_bytes() == b"second\n"


def test_a_symlinked_output_is_written_through_and_stays_a_link(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("the old target text\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write(link, "new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_a_new_file_gets_the_mode_open_w_gives_and_an_old_one_keeps_its_mode(tmp_path):
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "by_open.txt", "w", encoding="utf-8") as fp:
            fp.write("x")
        write(tmp_path / "by_writer.txt", "x")
    finally:
        os.umask(old_umask)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("by_open.txt", "by_writer.txt")]
    assert modes[0] == modes[1] == 0o640
    kept = tmp_path / "kept.txt"
    kept.write_text("old text")
    kept.chmod(0o600)
    write(kept, "new")
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600


def test_devnull_is_written_without_a_truncate():
    write(os.devnull, "discarded\n")


def test_a_directory_is_refused_as_open_w_refuses_it(tmp_path):
    with pytest.raises(IsADirectoryError):
        write(tmp_path, "x")


# One run per command, with every output it writes ("" marks a file --out).
RUNS = {
    "check": (["check", "--model", "bell_product_basic"], ["check.json", "joint_table.csv"]),
    "chsh_exact": (["chsh", "--model", "cosine_threshold_lhv", "--method", "exact"],
                   ["chsh.json", "chsh.csv"]),
    "chsh_monte_carlo": (["chsh", "--model", "cosine_threshold_lhv", "--method", "monte_carlo",
                          "--trials", "5000", "--seed", "3"], ["chsh.json", "chsh.csv"]),
    "simulate": (["simulate", "--model", "bell_product_basic", "--trials", "200"],
                 ["summary.json", "trials.csv"]),
    "audit": (["audit", "--model", "bell_product_basic", "--trials", "100",
               "--perturbations", "2"], ["audit.json"]),
    "transform": (["transform", "--model", "constant_plus", "--op", "double"], [""]),
}


def run_into(argv, names, out):
    target = out / "model.ini" if names == [""] else out
    assert main([*argv, "--deterministic", "--out", str(target)]) == 0
    return {name or "model.ini": (out / (name or "model.ini")).read_bytes() for name in names}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_a_rerun_over_larger_outputs_equals_a_fresh_run(tmp_path, capsys, command):
    argv, names = RUNS[command]
    fresh = run_into(argv, names, tmp_path / "fresh")
    stale = tmp_path / "stale"
    stale.mkdir()
    for name, data in fresh.items():
        (stale / name).write_bytes(b"#" * (len(data) + 4096))
    inodes = {name: (stale / name).stat().st_ino for name in fresh}
    assert run_into(argv, names, stale) == fresh
    assert {name: (stale / name).stat().st_ino for name in fresh} == inodes


def _writes_outside_the_writer(tree: ast.AST) -> list[int]:
    """Lines of an ``open`` call with a write mode outside ``open_output``,
    and of any ``write_text`` or ``write_bytes`` call."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "open_output":
            allowed.update(id(sub) for sub in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name != "open" or id(node) in allowed:
            continue
        owner = getattr(getattr(func, "value", None), "id", None)
        if owner == "os":  # os.open takes flags, so any call may write
            lines.append(node.lineno)
            continue
        # open(file, mode) and io.open(file, mode), but Path.open(mode)
        mode = node.args[1:2] if owner in (None, "io") else node.args[:1]
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + mode
        if any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
               for m in modes):
            lines.append(node.lineno)
    return lines


def test_no_module_writes_an_output_but_through_open_output():
    package = Path(eprsim.__file__).parent
    found = {path.name: _writes_outside_the_writer(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_way_of_writing():
    source = ("open(p, 'w')\nopen(p, mode='a')\nPath(p).write_text(t)\np.write_bytes(b)\n"
              "path.open('w')\nos.open(p, os.O_WRONLY)\nio.open(p, 'x')\n"
              "open(p)\nopen(p, newline='', encoding='utf-8')\nopen(p, 'rb')\npath.open()\n")
    assert sorted(_writes_outside_the_writer(ast.parse(source))) == [1, 2, 3, 4, 5, 6, 7]
