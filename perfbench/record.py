"""Record the laws-cli reference outputs into perfbench/data/.

    python3 perfbench/record.py

Writes the SHA-256 digest of every ``laws run <set> --model <m> --format
json --seed <s>`` report for the seed pool, and the stdout and exit code of
each CLI example in README.md.  The files in data/ were recorded at the
commit that defined the benchmark; law-report JSON must stay byte-identical,
so re-recording is only for a deliberate, documented change of output.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys

import run

SEED_POOL = range(16)

# The CLI examples of README.md's "Command line" section, without the
# leading program name.
README_EXAMPLES = [
    ["ratio", "cmp", "--model", "rat", "3/2", "4/3"],
    ["ratio", "cmp", "--model", "rat", "1", "2", "3", "6"],
    ["multiple", "--model", "rat", "5", "3/4"],
    ["fourth", "--model", "rat", "2", "3", "1", "-p", "30"],
    ["mul", "--model", "rat", "3/2", "4/3"],
    ["quot", "--model", "rat", "3/2", "1/2"],
    ["pow", "2", "1/2", "-p", "40"],
    ["embed-check", '{"kind":"unit-multiple","codomain":"rat","image":"2/5"}'],
    ["laws", "run", "euclid_v", "--model", "rat", "--trials", "1000", "--seed", "42"],
    ["laws", "list"],
]


def _cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    code = lib.cli.main(argv, out=out, err=err)
    return code, out.getvalue()


def main() -> int:
    lib = run.load_library()
    pairs = sorted({(spec["set"], m) for spec in lib.laws.list_laws() for m in spec["models"]})
    digests = {}
    for seed in SEED_POOL:
        for law_set, model in pairs:
            argv = ["laws", "run", law_set, "--model", model, "--format", "json", "--seed", str(seed)]
            code, stdout = _cli(lib, argv)
            if code != 0:
                print(f"{argv} exited {code}", file=sys.stderr)
                return 1
            digests[f"{law_set}/{model}/{seed}"] = hashlib.sha256(stdout.encode()).hexdigest()
    data = run.HERE / "data"
    data.mkdir(exist_ok=True)
    payload = {"trials": 100, "pairs": [list(p) for p in pairs], "digests": digests}
    (data / "laws_digests.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    examples = []
    for argv in README_EXAMPLES:
        code, stdout = _cli(lib, argv)
        examples.append({"argv": argv, "code": code, "stdout": stdout})
    (data / "readme_cli.json").write_text(json.dumps(examples, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(digests)} law-report digests and {len(examples)} README examples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
