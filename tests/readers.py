"""Reference readers for tests: a word<TAB>number file read through the
text layer one line at a time, and the vocabulary checks as plain loops,
as the package did them before it parsed such files in bulk. Tests check
load_lexicon and load_word_stats against these."""

from segspectral import SINGLE_CHAR_WORDS


def text_lines(path) -> list[str]:
    """The lines of a UTF-8 file: only a line feed ends a line, and it goes
    together with at most one carriage return right before it."""
    lines = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for text in fh:
            if text.endswith("\n"):
                text = text[:-2] if text.endswith("\r\n") else text[:-1]
            lines.append(text)
    return lines


def read_word_numbers(path, what: str) -> dict[str, int]:
    """Read a "word<TAB>number" file, skipping blank lines. A word listed
    twice is an error, naming both lines."""
    out: dict[str, int] = {}
    first: dict[str, int] = {}
    for lineno, line in enumerate(text_lines(path), 1):
        if not line.strip():
            continue
        try:
            word, number = line.split("\t")
            value = int(number)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected 'word<TAB>{what}', got {line!r}") from exc
        if word in first:
            raise ValueError(f"{path}:{lineno}: word {word!r} already listed on line {first[word]}")
        first[word] = lineno
        out[word] = value
    return out


def fits_float(number: int) -> bool:
    try:
        float(number)
    except OverflowError:
        return False
    return True


def check_ranks(entries: dict[str, int]) -> None:
    """The checks Lexicon makes of its entries, in its order."""
    ranks = list(entries.values())
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive integers")
    if len(set(ranks)) != len(ranks):
        raise ValueError("ranks must be unique")
    if any(not w for w in entries):
        raise ValueError("lexicon words must be nonempty")
    # Only a character of single_char_set has its rank divided by.
    if any(len(w) == 1 and w in SINGLE_CHAR_WORDS and not fits_float(r) for w, r in entries.items()):
        raise ValueError("a one-character word's rank must fit in a float")


def check_counts(words: dict[str, int]) -> None:
    """The checks WordStats makes of its words, in its order."""
    if any(c < 1 for c in words.values()):
        raise ValueError("word counts must be >= 1")
    if any(not w for w in words):
        raise ValueError("training words must be nonempty")
    if any(len(w) == 1 and not fits_float(c) for w, c in words.items()):
        raise ValueError("a one-character word's count must fit in a float")
