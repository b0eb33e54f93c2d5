"""ASCII and SVG renderings of the meander column.

One dot per orbit position, values phi(i) alongside, turning points
labelled A/B, nil values encircled, the modified chain drawn with thick
links and changed values carrying a c-marker.  Both renderers are pure
functions of the construction, so output is byte-deterministic.
"""

from __future__ import annotations


def ascii_diagram(sc):
    td = sc.turning
    tr = td.traversal
    n = td.pair.n
    changed = set(sc.changed)
    lines = [
        "meander (%d,%d)  n=%d  sg=%s  mode=%s"
        % (td.pair.p, td.pair.q, n, sc.sig.as_string() or "(empty)", sc.construction_mode)
    ]
    for i in range(1, n + 1):
        tag = ""
        if i in td.label_of:
            tag = "  %s[%d]" % (td.tag_at(i), td.label_of[i])
        lines.append("%3d: o %-3d%s" % (i, tr.phi[i - 1], tag))
        if i < n:
            a, b = td.betas[i - 1]
            link = "( )" if td.nil[i - 1] else (" # " if i in changed else " | ")
            marks = []
            if td.nil[i - 1]:
                marks.append("nil")
            if td.isolated[i - 1]:
                marks.append("isolated")
            if i == td.e:
                marks.append("e")
            if i in changed:
                marks.append("c")
            lines.append(
                "     %s b%-2d e%d-e%d%s"
                % (link, i, a, b, ("  " + ",".join(marks)) if marks else "")
            )
    lines.append("order c = %s" % (",".join(str(v) for v in sc.order)))
    return "\n".join(lines) + "\n"


def svg_diagram(sc):
    td = sc.turning
    tr = td.traversal
    n = td.pair.n
    changed = set(sc.changed)
    step = 40
    x0 = 120
    height = step * (n + 1)
    width = 360
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<title>meander (%d,%d)</title>' % (td.pair.p, td.pair.q),
    ]
    pos_of_value = {v: i + 1 for i, v in enumerate(tr.phi)}

    def y(i):
        return step * i

    # thin links for the original chain, one per interval; nil encircled
    for i in range(1, n):
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="1"/>'
            % (x0, y(i), x0, y(i + 1))
        )
        if td.nil[i - 1]:
            parts.append(
                '<circle cx="%d" cy="%d" r="8" fill="none" stroke="black" stroke-width="1"/>'
                % (x0, y(i) + step // 2)
            )
    # thick links for the modified chain, drawn as arcs between the orbit
    # positions of the two values of each root
    for idx, (a, b) in enumerate(sc.pi_final, start=1):
        ya, yb = y(pos_of_value[a]), y(pos_of_value[b])
        bend = 24 + 6 * (idx % 4)
        parts.append(
            '<path d="M %d %d Q %d %d %d %d" fill="none" stroke="black" stroke-width="3"/>'
            % (x0, ya, x0 + bend, (ya + yb) // 2, x0, yb)
        )
    for i in range(1, n + 1):
        parts.append(
            '<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x0, y(i))
        )
        parts.append(
            '<text x="%d" y="%d" font-size="14">%d</text>' % (x0 - 40, y(i) + 5, tr.phi[i - 1])
        )
        if i in td.label_of:
            parts.append(
                '<text x="%d" y="%d" font-size="14">%s[%d]</text>'
                % (x0 + 60, y(i) + 5, td.tag_at(i), td.label_of[i])
            )
        if i < n and i in changed:
            parts.append(
                '<text x="%d" y="%d" font-size="12">c</text>'
                % (x0 + 14, y(i) + step // 2 + 4)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
