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
