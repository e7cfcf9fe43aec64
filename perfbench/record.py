"""Record the default seed's answers into answers.json.

Runs every request of every round of each workload's deck once, checks the
outputs with the seed-independent checks, and writes a digest of each
output to a new answers.json.  Later runs at the default seed compare every
output byte for byte against these digests.  Record only from a commit
whose answers are known to be right, and only when the decks change:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

from run import ANSWERS, DEFAULT_SEED, SRC, TESTS, execute


def main() -> int:
    sys.path[:0] = [str(SRC), str(TESTS)]

    import workloads
    from checks import argv_digest, check_run, digest

    from fptkit import cli

    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.ROUNDS:
        deck = workloads.make_deck(name, DEFAULT_SEED)
        results = {}
        for k, requests in enumerate(deck):
            for i, req in enumerate(requests):
                results[(k, i)] = execute(cli, req)[0]
        failures = check_run(deck, results)
        if failures:
            for (k, i), msgs in sorted(failures.items())[:20]:
                print(f"{name} round {k} request {i} {deck[k][i].argv}: {msgs}", file=sys.stderr)
            print(f"{name}: {len(failures)} requests fail their checks; nothing recorded",
                  file=sys.stderr)
            return 1
        data["workloads"][name] = {
            "argv": [argv_digest(requests) for requests in deck],
            "outputs": ["".join(digest(*results[(k, i)][:3]) for i in range(len(requests)))
                        for k, requests in enumerate(deck)],
        }
        print(f"{name}: {len(results)} answers")
    ANSWERS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
