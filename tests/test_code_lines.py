"""The code-line counter's rules, on a fixed snippet."""

from code_lines import count_code_lines, main

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class Point:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    text = """a string
that is not a docstring"""
    return os.path.join(a, b, text)
'''
# import; class line and its x; the def over two lines; text over two lines; return
CODE_LINES = 8


def test_counts_code_lines_only(tmp_path, capsys):
    assert count_code_lines(SNIPPET) == CODE_LINES
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == (
        f"     1  {tmp_path / 'b.py'}\n"
        f"     8  {tmp_path / 'pkg' / 'a.py'}\n"
        "     9  total\n")


def test_path_that_is_neither_file_nor_directory_fails(tmp_path, capsys):
    absent = tmp_path / "nosuchdir"
    assert main([str(tmp_path), str(absent)]) == 2
    assert capsys.readouterr() == (
        "", f"code_lines.py: {absent} is neither a file nor a directory\n")
