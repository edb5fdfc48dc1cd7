"""Open-flag and seek-whence constants.

Values mirror Linux so traces read naturally, but nothing in the library
depends on the host OS definitions.
"""

from __future__ import annotations

O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3

O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


def accmode(open_flags: int) -> int:
    """The access-mode bits of ``open_flags``."""
    return open_flags & O_ACCMODE


def readable(open_flags: int) -> bool:
    return open_flags & O_ACCMODE in (O_RDONLY, O_RDWR)


def writable(open_flags: int) -> bool:
    return open_flags & O_ACCMODE in (O_WRONLY, O_RDWR)


def describe(open_flags: int) -> str:
    """Human-readable flag string for reports, e.g. ``O_WRONLY|O_CREAT``."""
    parts = [{O_RDONLY: "O_RDONLY", O_WRONLY: "O_WRONLY",
              O_RDWR: "O_RDWR"}[accmode(open_flags)]]
    for bit, name in ((O_CREAT, "O_CREAT"), (O_EXCL, "O_EXCL"),
                      (O_TRUNC, "O_TRUNC"), (O_APPEND, "O_APPEND")):
        if open_flags & bit:
            parts.append(name)
    return "|".join(parts)


_FOPEN_MODES = {
    "r": O_RDONLY,
    "r+": O_RDWR,
    "w": O_WRONLY | O_CREAT | O_TRUNC,
    "w+": O_RDWR | O_CREAT | O_TRUNC,
    "a": O_WRONLY | O_CREAT | O_APPEND,
    "a+": O_RDWR | O_CREAT | O_APPEND,
}


def fopen_mode_to_flags(mode: str) -> int:
    """Translate an ``fopen(3)`` mode string to open flags."""
    key = mode.replace("b", "")
    try:
        return _FOPEN_MODES[key]
    except KeyError:
        raise ValueError(f"unsupported fopen mode {mode!r}") from None
