"""A synthetic corpus whose words share one pool of characters, so the
n-gram statistics do not give every boundary away and F can move.

Every character of a line comes from the same Zipf-weighted pool of 400
Chinese characters, and words are Zipf-weighted draws from a vocabulary
of up to 2000 distinct words of 1-4 characters built from that pool.
Unlike evaluation.generate_synthetic, whose words own disjoint characters
(F is 1.0 at the right cut), a word here can be the start or the end of
another, and F at the usual cuts is 0.55-0.75.
"""

import random
from itertools import accumulate

from segspectral.evaluation import _EXCLUDED

POOL = 400
VOCAB = 2000
WORD_LENGTHS = (1, 2, 3, 4)
LENGTH_WEIGHTS = (1, 3, 2, 1)
LINE_WORDS = (5, 20)


def _zipf(count: int) -> list[float]:
    """Cumulative weights 1/(i + 1) of count items."""
    return list(accumulate(1 / (i + 1) for i in range(count)))


def shared_pool_corpus(lines: int, seed: int) -> tuple[list[str], list[list[str]]]:
    """lines raw lines and the gold words of each, deterministic in seed."""
    rng = random.Random(seed)
    candidates = [ch for ch in map(chr, range(0x4E00, 0xA000)) if ch not in _EXCLUDED]
    pool = rng.sample(candidates, POOL)
    pool_weights = _zipf(POOL)
    vocab = {}  # a dict keeps the words in draw order
    while len(vocab) < VOCAB:
        length = rng.choices(WORD_LENGTHS, LENGTH_WEIGHTS)[0]
        vocab["".join(rng.choices(pool, cum_weights=pool_weights, k=length))] = None
    words, word_weights = list(vocab), _zipf(len(vocab))
    gold = [rng.choices(words, cum_weights=word_weights, k=rng.randint(*LINE_WORDS)) for _ in range(lines)]
    return ["".join(line) for line in gold], gold
