"""Generate a demo input tree for trying the CLI by hand.

    python3 tests/make_demo.py /tmp/demo
    apprepo build --config /tmp/demo/config.json --out /tmp/demo/repo/v1
    apprepo validate /tmp/demo/repo/v1/project.xml
    apprepo report /tmp/demo/repo
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bundles import ripper_document, write_sources
from fixtures import write_corpus


def make_demo(root: Path) -> Path:
    root = root.resolve()  # the config's paths resolve against its own directory
    root.mkdir(parents=True, exist_ok=True)
    paths = write_corpus(root / "inputs")
    sources = root / "inputs" / "sources"
    write_sources(sources)
    gui = root / "inputs" / "ripped.xml"
    gui.write_text(ripper_document(), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({
        "name": "demo-app",
        "version": "1.0",
        "timestamp": "2001-06-01",
        "framework": [str(paths["framework"])],
        "library": [str(paths["library"])],
        "application": [str(paths["application"])],
        "sources": str(sources),
        "external_gui": str(gui),
        "entry_points": "auto",
    }, indent=2), encoding="utf-8")
    return config


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo")
    config = make_demo(target)
    print(f"demo inputs ready; config at {config}")
