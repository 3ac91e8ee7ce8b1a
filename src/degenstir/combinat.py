"""Small enumeration helpers: compositions and exact partitions."""


def compositions(total: int, parts: int, min_part: int = 0):
    """Yield tuples of ``parts`` integers, each >= min_part, summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= min_part:
            yield (total,)
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def partitions_exact(total: int, parts: int, max_part=None):
    """Yield nonincreasing tuples of exactly ``parts`` positive integers
    summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    top = total - parts + 1
    if max_part is not None:
        top = min(top, max_part)
    for first in range(top, 0, -1):
        if first * parts < total:
            break
        for rest in partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest
