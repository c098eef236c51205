"""Reference readers for tests: a word<TAB>number file read through the
text layer one line at a time, and the vocabulary checks as plain loops
over its entries, each naming the line at fault. Tests check
load_lexicon and load_word_stats, which parse such files in bulk and find
the line only when a check fails, against these."""

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


def read_word_numbers(path, what: str) -> tuple[dict[str, int], dict[str, int]]:
    """Read a "word<TAB>number" file, skipping blank lines: each word's
    number and each word's line. A word listed twice is an error, naming
    both lines."""
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
    return out, first


def fits_float(number: int) -> bool:
    try:
        float(number)
    except OverflowError:
        return False
    return True


def _first_fault(path, line_of, message, faulty):
    """Raise message at the line of the first word in faulty, if any."""
    for word in faulty:
        raise ValueError(f"{path}:{line_of[word]}: {message}")


def check_ranks(path, entries: dict[str, int], line_of: dict[str, int]) -> None:
    """The checks Lexicon makes of its entries, in its order, naming the
    line at fault as load_lexicon does: the first in the file, but for a
    rank that must fit in a float, the first in character order, which is
    the order Lexicon converts them in. A repeated rank names both lines."""
    _first_fault(path, line_of, "ranks must be positive integers", (w for w, r in entries.items() if r < 1))
    first: dict[int, str] = {}
    for word, rank in entries.items():
        if rank in first:
            raise ValueError(
                f"{path}:{line_of[word]}: ranks must be unique: rank {rank} already listed on line "
                f"{line_of[first[rank]]}"
            )
        first[rank] = word
    _first_fault(path, line_of, "lexicon words must be nonempty", (w for w in entries if not w))
    # Only a character of single_char_set has its rank divided by.
    unfit = sorted(w for w, r in entries.items() if len(w) == 1 and w in SINGLE_CHAR_WORDS and not fits_float(r))
    _first_fault(path, line_of, "a one-character word's rank must fit in a float", unfit)


def check_counts(path, words: dict[str, int], line_of: dict[str, int]) -> None:
    """The checks WordStats makes of its words, in its order, naming the
    first line at fault as load_word_stats does."""
    _first_fault(path, line_of, "word counts must be >= 1", (w for w, c in words.items() if c < 1))
    _first_fault(path, line_of, "training words must be nonempty", (w for w in words if not w))
    unfit = (w for w, c in words.items() if len(w) == 1 and not fits_float(c))
    _first_fault(path, line_of, "a one-character word's count must fit in a float", unfit)
