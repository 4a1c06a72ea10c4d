"""The README's library example runs as written against the package."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_computes_the_bound():
    # The python block of the "Library" section ends in the call whose
    # value its comment gives.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    tree = ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])
    last = tree.body.pop()
    assert isinstance(last, ast.Expr)
    namespace = {}
    exec(compile(tree, str(README), "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), str(README), "eval"), namespace) == 8
