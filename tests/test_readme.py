"""The README's "Library tour" runs, and gives the results its comments state."""

import pathlib
import re

from magnitudes import PosRat

README = pathlib.Path(__file__).parent.parent / "README.md"


def tour_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library tour'"
    return match.group(1)


def test_library_tour():
    source = tour_source()
    ns = {}
    exec(compile(source, "README.md:Library tour", "exec"), ns)

    out, v, x, two, mul_pow = ns["out"], ns["v"], ns["x"], ns["two"], ns["mul_pow"]
    assert "# (17, '2/3')" in source
    assert (ns["parse_element"](ns["NAT"], "17"), str(PosRat(4, 6))) == (17, "2/3")
    assert "# (9, 8)" in source and ns["RAT"].ratio_pair(PosRat(3, 2), PosRat(4, 3)) == (9, 8)
    assert "# ('26/7', '26/7')" in source
    assert str(ns["multiple_naive"](13, PosRat(2, 7))) == "26/7"
    assert "# '7/3'" in source and str(ns["IdentityRepr"](ns["RAT"])(PosRat(7, 3))) == "7/3"
    assert "# ('less', '1/6')" in source
    assert (out.tag.value, str(out.gap)) == ("less", "1/6")
    assert "# 'm=3 n=4'" in source
    assert str(v.witness) == "m=3 n=4"
    assert ns["verify_witness"](v.witness, PosRat(3, 1), PosRat(2, 1), PosRat(4, 1), PosRat(3, 1))

    iv = x.approx(30)
    assert iv.lo <= PosRat(3, 2) <= iv.hi
    assert iv.width_at_most(30)

    root = mul_pow(two, PosRat(1, 2), 40).approx(40)
    assert root.lo * root.lo <= PosRat(2) <= root.hi * root.hi
    assert root.width_at_most(40)
