"""Parse an event stream from text, walk its snapshots, watch Betti numbers move."""
import numpy as np

from ripsapprox.geometry import PointCloud
from ripsapprox.persistence import betti
from ripsapprox.tower import EventStream, MalformedStream, build_simplicial_tower, replay, snapshots

rng = np.random.default_rng(11)
P = PointCloud(rng.uniform(0, 10, size=(9, 2)))
stream = build_simplicial_tower(P, 2, seed=5)
text = stream.to_text()
print("stream is plain text, %d lines, round-trips: %s"
      % (len(text.splitlines()), EventStream.parse(text) == stream))

# snapshots validates and materializes the complex after each scale group
for snap in snapshots(stream):
    print("scale %d  alpha=%-8g cells=%-5d live vertices=%-4d reduced betti=%s"
          % (snap.scale_ordinal, snap.alpha, sum(map(len, snap.cells)), len(snap.cells[0]),
             betti(snap)))

# the final complex is one subdivided cube: connected, and with flags up to
# length d+1 in the stream it is fully acyclic
assert betti(replay(stream))[0] == 0

# malformed input is rejected with a reason, not silently repaired
broken = text + "I 0 0\n"
try:
    replay(EventStream.parse(broken))
except MalformedStream as e:
    print("\nduplicate id rejected:", e)

head, body = text.split("\n", 1)
try:
    replay(EventStream.parse(head + "\nI 99 0\n" + body))
except MalformedStream as e:
    print("event before any scale rejected:", e)
