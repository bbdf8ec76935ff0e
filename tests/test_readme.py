from pathlib import Path

from lidarpgt.cli import build_parser
from lidarpgt.dataset import FRAME_FILES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_command_line_block_parses():
    section = README.read_text().split("## Command-line usage", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("lidarpgt ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)


def test_sequence_layout_block_names_every_frame_kind():
    section = README.read_text().split("## Sequence directory layout", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    for directory, suffix in FRAME_FILES.values():
        assert f"  {directory}/000000{suffix}" in block, (directory, suffix)
