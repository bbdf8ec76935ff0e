from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
