import re


def test_readme_library_example_runs():
    with open("README.md") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
