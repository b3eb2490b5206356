# Negative fixture for RTS005: every construction has a visible release.


def with_statement(boxes):
    with RTSIndex(boxes) as idx:        # noqa: F821
        return idx.query(boxes).count


def try_finally(boxes):
    idx = RTSIndex(boxes)               # noqa: F821
    try:
        return idx.query(boxes).count
    finally:
        idx.close()


def owner_comment(boxes):
    # owner: caller-managed bench index, closed by the harness
    idx = RTSIndex(boxes)               # noqa: F821
    return idx


def handed_off(boxes, registry):
    registry.adopt(RTSIndex(boxes))     # noqa: F821


def returned(boxes):
    return RTSIndex(boxes)              # noqa: F821


class Holder:
    def __init__(self, boxes):
        self.idx = RTSIndex(boxes)      # noqa: F821

    def close(self):
        self.idx.close()

