"""F floors on shared-pool corpora, where F is not saturated and so can
show a regression in the graph weights, the spectrum or the clustering.

Each floor is the F measured when it was set, minus 0.02. The form and
cut are set here, not read from pipeline.RECIPES, so a change of the
recipe defaults does not move these floors.
"""

import pytest

from segspectral import EhrParams, LaplacianForm, SegmenterConfig, ingest_corpus, score_corpus, segment_document

from shared_pool import shared_pool_corpus

TRAIN_LINES = 2000
SCORED_LINES = 200
MARGIN = 0.02

UNNORM, SYM = LaplacianForm.UNNORMALIZED, LaplacianForm.SYMMETRIC_NORMALIZED
# F on the first SCORED_LINES lines by seed, form and cut, ehr recipe.
MEASURED = {
    (1, UNNORM, 1.5): 0.5649,
    (2, UNNORM, 1.5): 0.6483,
    (3, UNNORM, 1.5): 0.6148,
    (1, SYM, 0.3): 0.6795,
    (2, SYM, 0.3): 0.7260,
    (3, SYM, 0.3): 0.6111,
}


@pytest.fixture(scope="module")
def corpora():
    """The lines, gold words and trained model of each seed, made once."""
    cache = {}

    def get(seed):
        if seed not in cache:
            lines, gold = shared_pool_corpus(TRAIN_LINES, seed)
            cache[seed] = lines, gold, ingest_corpus(lines)
        return cache[seed]

    return get


@pytest.mark.parametrize("seed, form, cut", list(MEASURED))
def test_f_floor(corpora, seed, form, cut):
    lines, gold, model = corpora(seed)
    words, errors = segment_document(lines[:SCORED_LINES], model, SegmenterConfig(EhrParams(), form, cut))
    assert not errors
    f1 = score_corpus(gold[:SCORED_LINES], words).f1
    assert f1 >= MEASURED[seed, form, cut] - MARGIN, f"F {f1:.4f} at seed {seed}, {form.value} {cut}"

