import ast
from pathlib import Path

import kinnet


def test_np_errstate_is_written_only_in_errors_py():
    # the package's one floating-point policy is errors._ieee_policy: every
    # numeric entry point enters it, and no module writes a policy of its own
    package = Path(kinnet.__file__).parent
    found = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "errstate" in line]
    assert found == []


def test_a_kernel_table_is_read_only_in_the_model_and_the_junction_moments():
    # B, the gain's dense builds and the engine's route all come from one read
    # of each kernel's table, operators._junction_moments
    package = Path(kinnet.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = [range(f.lineno, f.end_lineno + 1) for f in tree.body
                   if path.name == "operators.py" and isinstance(f, ast.FunctionDef)
                   and f.name == "_junction_moments"]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_table"
                  and not any(node.lineno in lines for lines in allowed)]
    assert found == []
