# Recipe of this directory's fixture (run once, at PR 24; kept for the record).
# data/ is the -data-dir of an mpserver built at commit f4dce6e — the last one
# whose registry held served matrices dense — killed with SIGKILL after two
# uploads (snapshots) and five row patches (the WAL suffix); answers.json is
# that server's /v1/matrices listing and its pinned-seed answer per kind, taken
# just before the kill. TestParentDataDirRecovers holds a recovery of a copy of
# data/ to them. When lp's round 1 moved to 3-byte Float24 words, the `bits` of
# the three answers that carry it (lp p=1 on both matrices, hh on "ints") were
# re-pinned by hand; data/ and every estimate are the parent's.
import json, random, subprocess, time, urllib.request, os, signal, sys
addr = "127.0.0.1:18311"
base = "http://" + addr
def call(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req) as r:
        return json.loads(r.read())
srv = subprocess.Popen(["/root/scratch/bin/parent/mpserver", "-addr", addr, "-data-dir", "data", "-fsync", "always", "-snapshot-every", "-1"], stderr=open("server.log", "w"))
for _ in range(100):
    try:
        call("GET", "/v1/healthz"); break
    except Exception: time.sleep(0.05)
rnd = random.Random(2400)
n = 16
def mat(vals, density):
    return {"rows": n, "cols": n, "entries": [[i, j, rnd.choice(vals)] for i in range(n) for j in range(n) if rnd.random() < density]}
call("PUT", "/v1/matrix/bits", mat([1], 0.3))
call("PUT", "/v1/matrix/ints", mat([-3, -2, -1, 1, 2, 3], 0.25))
# WAL suffix: replace and delta patches on both; "bits" stays 0/1.
call("PATCH", "/v1/matrices/bits/rows", {"updates": [{"row": 2, "entries": [[0, 1], [5, 1], [9, 1]]}, {"row": 7, "entries": []}]})
call("PATCH", "/v1/matrices/bits/rows", {"row": 7, "entries": [[3, 1], [4, 1]], "delta": True})
call("PATCH", "/v1/matrices/ints/rows", {"row": 4, "entries": [[1, -5], [2, 0], [8, 7]]})
call("PATCH", "/v1/matrices/ints/rows", {"row": 4, "entries": [[1, 5], [3, 2]], "delta": True})
call("PATCH", "/v1/matrices/ints/rows", {"updates": [{"row": 0, "entries": [[15, -1]]}, {"row": 11, "entries": [[0, 4], [1, 4]]}], "delta": True})
a = {"rows": 12, "cols": n, "entries": [[i, j, 1] for i in range(12) for j in range(n) if rnd.random() < 0.3]}
answers = []
def ask(req):
    res = call("POST", "/v1/estimate", req)
    res["elapsed_ns"] = 0
    answers.append({"request": {k: v for k, v in req.items() if k != "a"}, "result": res})
for kind in ["lp", "l0sample", "l1sample", "exact", "linf", "linfkappa", "hh"]:
    req = {"matrix": "bits", "kind": kind, "a": a, "seed": 2401}
    if kind == "lp": req["p"] = 1
    ask(req)
for kind, extra in [("lp", {"p": 1}), ("lp", {"p": 0}), ("l0sample", {}), ("hh", {"p": 1})]:
    ask({"matrix": "ints", "kind": kind, "a": a, "seed": 2402, **extra})
listing = call("GET", "/v1/matrices")
with open("golden/answers.json", "w") as f:
    f.write('{"matrices": %s,\n "a": %s,\n "answers": [\n  %s\n ]}\n' % (json.dumps(listing), json.dumps(a, separators=(",", ":")), ",\n  ".join(json.dumps(x) for x in answers)))
srv.send_signal(signal.SIGKILL); srv.wait()
