"""The benchmark's reference work, timed between points to track host speed.

The loop is shaped like the relation kernel (tuple-keyed memo, recursion
over index sub-words, complex arithmetic), so host slow-downs hit it as
they hit the program.  It belongs to the benchmark; no change to the
package moves it.

Run as a script, it is the reference for CLI points: a fresh interpreter
that imports nothing beyond ``itertools`` and runs PROBE_LOOPS loops,
about as much Python work as a CLI step does after its imports:

    python3 perfbench/reference.py
"""

from itertools import combinations

VALUES = tuple(complex(1 + k % 3, 0.5 - k % 5) * 0.3 for k in range(11))
PROBE_LOOPS = 25


def _word(word: tuple, memo: dict) -> complex:
    v = memo.get(word)
    if v is None:
        if len(word) == 1:
            v = VALUES[word[0]]
        else:
            v = 0.5 * (_word(word[:-1], memo) * VALUES[word[-1]]
                       - _word(word[1:], memo) + _word(word[:1] + word[2:], memo))
        memo[word] = v
    return v


def reference_loop() -> float:
    memo: dict = {}
    return max(abs(_word(q, memo)) for q in combinations(range(11), 5))


if __name__ == "__main__":
    for _ in range(PROBE_LOOPS):
        reference_loop()
