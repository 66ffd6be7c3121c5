"""The library's one refusal type and the line reader of its text formats."""


class InputError(ValueError):
    """Input the library refuses: malformed text, or data outside a function's domain.
    Every library error class derives from it; any other exception, but cli.Falsified, is a bug."""


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(number from 1, content) of each line left after cutting '#' comments and blank lines."""
    lines = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), start=1))
    return [(no, line) for no, line in lines if line]
