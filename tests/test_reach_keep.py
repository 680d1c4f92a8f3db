"""The reach map's :data:`reach.KEEP` table names only functions that exist.

``python -m tests.reach`` classifies a function by matching its name against
``KEEP``; a name that matches nothing (misspelt, or left behind when its
function was deleted) is silently ignored there.  This reads ``src/repro``'s
AST only and starts no driver.
"""

from __future__ import annotations

import reach


def test_every_keep_name_is_a_src_function():
    defined = {key for key, _ in reach.functions().values()}
    named = [
        f"repro/{path}::{name}"
        for files in reach.KEEP.values()
        for path, names in files.items()
        for name in names.split()
    ]
    assert named and not [name for name in named if set(name) & set("*?[")]
    assert [name for name in named if name not in defined] == []
