"""The text of every bundled scenario report, pinned byte for byte.

`ppt reproduce <id>` prints run_scenario(id).text(); a change that alters
any expected or computed value, its rendering or the check order moves
a hash.  The text holds no timings and does not depend on
PYTHONHASHSEED.  After a deliberate change, re-pin from

    python -c "import hashlib; from permpoly.scenarios import SCENARIOS, \
run_scenario; [print(n, hashlib.sha256(run_scenario(n).text().encode()).\
hexdigest()) for n in SCENARIOS]"
"""

import hashlib

from permpoly.scenarios import SCENARIOS, run_scenario

PINNED = {
    "intro-pair":
        "7891ea70701d2ecda2ba1d901ed1b40e60baf93bb043bc265e095f91b44ae038",
    "z4-family":
        "d58b59eb918de7e0acfdf8c54bbc34d95a74861a4e8c8c2981f975d87bc5117f",
    "klein-volume":
        "c56c80d191741980362f0163ee61bf745ef95372e4ea4b3b5e064be4cbd2abfe",
    "a6-almost":
        "20d4c87837351d349031577d9980c4085548f42851a9e4094b9c7d348e90194c",
    "main-example":
        "afaf77afe73208a1500ecffe4281c305e05c443b4c143a7f4bc9decf2111099f",
    "face-census":
        "deb4d10d5b334f40b416710a4f4f0fa730b87d0165549436d4e7a1b325ab4690",
    "isotype-suite":
        "2b436da17fc768db61bfca21c2798d691e23e10779d732f2a1d126bef556e780",
}


def test_reproduce_text_is_pinned():
    assert set(PINNED) == set(SCENARIOS)
    moved = [name for name in SCENARIOS
             if hashlib.sha256(run_scenario(name).text().encode()).hexdigest()
             != PINNED[name]]
    assert not moved, "report text changed for: %s" % ", ".join(moved)
