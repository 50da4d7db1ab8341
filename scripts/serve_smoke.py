#!/usr/bin/env python3
"""End-to-end smoke test for the qsa_serve daemon.

Drives the real binaries (not the in-process server the unit tests
use): starts qsa_serve on a Unix-domain socket with a persistent
oracle store and a QSA_TRACE destination, fires N concurrent
qsa_client processes, and checks the serve determinism contract from
the outside:

 - every response is ok (or the expected positioned QASM error); the
   mix holds plain and two-item check plans, sample_final_state and
   resimulate locates, some at "threads": 4; every ok response
   reports its execution and parse time in "obs" ("duration_ns",
   "parse_ns"),
 - a batch of such plans and resimulate locates, pipelined on four
   connections at once, gives the same results on each,
 - identical requests produce byte-identical "result" members no
   matter how the concurrent batch interleaved,
 - a second (warm-store) round reproduces round one byte-for-byte,
 - an exact-mode locate whose reference overflows the measurement
   branch cap gets a structured error naming the instruction, and the
   SAME connection then serves a normal request and a sampled-mode
   retry of the same wide program (the daemon survives oracle
   derivation failures),
 - every locate the locator rejects that a 12-qubit daemon can reach
   (a width gate, a family the scope does not support, mismatched
   qubit spaces, no probeable boundary), check and analyze plans the
   Session rejects (an unknown register, a source breakpoint named
   like the Session's boundary marker), a lint of a 20,000,000-qubit
   register, and two lines the JSON parser rejects (100,000 nested
   arrays, an 80,000-member object) get an
   error response with the library's message, each followed by a ping
   on the SAME connection, and a first-instruction defect is then
   bracketed,
 - SIGTERM drains gracefully: exit status 0 and the atexit QSA_TRACE
   flush produced a well-formed trace file,
 - every library span in that trace (runtime.*, locate.*,
   assertions.*, session.*, analyze.*) sits on a thread that also
   carries serve.request spans: each request ran inline on its
   dispatcher, never on a pool worker,
 - the store directory actually holds persisted artifacts,
 - a bad numeric flag (negative, trailing junk, out of range) makes
   qsa_serve exit with status 2 and name the flag, without listening.
   These runs come last, after every check above, so a daemon that
   would accept such values never gets to start its threads.

Usage:
  serve_smoke.py --serve build/qsa_serve --client build/qsa_client
      [--clients 8] [--workdir DIR]

Exit status: 0 on success, 1 on any violation.
"""

import argparse
import collections
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time


def fail(message):
    sys.exit(f"serve_smoke: FAIL: {message}")


BELL = ("OPENQASM 2.0;\\nqreg a[1];\\nqreg b[1];\\n"
        "h a[0];\\ncx a[0],b[0];\\n// qsa.breakpoint done\\n")
REF = ("OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n"
       "h q[1];\\ncx q[1],q[0];\\n")
SUS = ("OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n"
       "t q[1];\\nh q[1];\\ncx q[1],q[0];\\n")
ENTANGLED = ('{"at": "done", "expect": "entangled",'
             ' "register": "a", "register_b": "b"}')
SUPERPOSITION = ('{"at": "done", "expect": "superposition",'
                 ' "register": "a"}')
CHECK = ('{"id": %s, "command": "check", "circuit": "%s",'
         ' "plan": [%s], "seed": %d, "ensemble_size": 128%s}')
LOCATE = ('{"id": %s, "command": "locate", "circuit": "%s",'
          ' "reference": "%s", "seed": %d, "ensemble_size": 128%s}')


def two_item_check(request_id, seed, threads):
    """A two-item check plan: in process, its items fan out over a
    pool as two BatchRunner units."""
    return CHECK % (json.dumps(request_id), BELL,
                    ENTANGLED + ", " + SUPERPOSITION, seed,
                    ', "threads": %d' % threads)


def resimulate_locate(request_id, seed, threads):
    """A resimulate mirror locate: in process, its path walks fan out
    over a pool."""
    return LOCATE % (json.dumps(request_id), SUS, REF, seed,
                     ', "mode": "resimulate", "threads": %d' % threads)


def make_requests(clients):
    """One request per client: locates and checks at repeated seeds
    (so byte-identity across concurrent responses is checkable), one
    lint, and one deliberately malformed circuit."""
    requests = []
    for i in range(clients):
        kind = i % 4
        if kind == 0:
            requests.append(CHECK % (i, BELL, ENTANGLED, 7, ""))
        elif kind == 1:
            requests.append(LOCATE % (i, SUS, REF, 5, ""))
        elif kind == 2:
            requests.append(two_item_check(i, 11, 4))
        else:
            requests.append(resimulate_locate(i, 5, 4))
    # Replace one slot with a positioned-error probe.
    requests[-1] = ('{"id": %d, "command": "lint", "circuit":'
                    ' "OPENQASM 2.0;\\nqreg q[1];\\nzz q[0];\\n"}'
                    % (clients - 1))
    return requests


def run_round(client, socket_path, requests):
    """Fire every request through its own concurrent qsa_client."""
    responses = [None] * len(requests)
    errors = [None] * len(requests)

    def one(i):
        try:
            proc = subprocess.run(
                [client, "--socket", socket_path],
                input=requests[i] + "\n", capture_output=True,
                text=True, timeout=120)
            if proc.returncode != 0:
                errors[i] = f"client exited {proc.returncode}: " \
                            f"{proc.stderr.strip()}"
                return
            responses[i] = proc.stdout.strip()
        except Exception as err:  # noqa: BLE001 - report, don't die
            errors[i] = str(err)

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(len(requests))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, err in enumerate(errors):
        if err:
            fail(f"client {i}: {err}")
    return responses


def result_member(response_line, i):
    """Parse one daemon response. An ok one must carry its cost in
    "obs": execution ("duration_ns") and parsing ("parse_ns"), each a
    non-negative integer of nanoseconds."""
    try:
        doc = json.loads(response_line)
    except ValueError as err:
        fail(f"response {i} is not JSON: {err}: {response_line!r}")
    if doc.get("ok") is True:
        obs = doc.get("obs")
        for field in ("duration_ns", "parse_ns"):
            value = obs.get(field) if isinstance(obs, dict) else None
            if not isinstance(value, int) or value < 0:
                fail(f"response {i}: \"obs\" lacks a {field} count: "
                     f"{response_line!r}")
    return doc


def check_round(requests, responses):
    """Validate one round and map request text -> result JSON text."""
    by_request = {}
    for i, (request, response) in enumerate(zip(requests, responses)):
        doc = result_member(response, i)
        if '"command": "lint"' in request and "zz" in request:
            if doc.get("ok") is not False:
                fail(f"response {i}: malformed QASM was accepted")
            err = doc.get("error", {})
            if err.get("line") != 3 or err.get("token") != "zz":
                fail(f"response {i}: error not positioned: {err}")
            continue
        if doc.get("ok") is not True:
            fail(f"response {i} not ok: {response}")
        key = request
        result = json.dumps(doc.get("result"), sort_keys=True)
        if key in by_request and by_request[key] != result:
            fail(f"response {i}: identical request produced a "
                 "different result under concurrency")
        by_request[key] = result
    return by_request


def check_fan_out_round(client, socket_path, connections=4):
    """The same pipelined batch of pool-fanning requests (two-item
    plans at "threads" 0 and 4, resimulate locates at "threads" 4) on
    several concurrent connections. Every response must be ok and
    byte-identical across connections. Sent many times over, such
    requests are sure to land work on pool workers if the daemon ever
    fans them out, which the trace check after the drain would
    catch."""
    batch = []
    for k in range(24):
        if k % 3 == 2:
            batch.append(resimulate_locate(f"fan-{k}", 30 + k, 4))
        else:
            batch.append(two_item_check(f"fan-{k}", 30 + k, 4 * (k % 3)))
    replies = [None] * connections

    def one(c):
        try:
            replies[c] = subprocess.run(
                [client, "--socket", socket_path],
                input="\n".join(batch) + "\n", capture_output=True,
                text=True, timeout=120)
        except Exception as err:  # noqa: BLE001 - report, don't die
            replies[c] = err

    threads = [threading.Thread(target=one, args=(c,))
               for c in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results = None
    for c, proc in enumerate(replies):
        if isinstance(proc, Exception):
            fail(f"fan-out connection {c}: {proc}")
        if proc.returncode != 0:
            fail(f"fan-out connection {c}: client exited "
                 f"{proc.returncode}: {proc.stderr.strip()}")
        by_id = {}
        for i, line in enumerate(proc.stdout.strip().splitlines()):
            doc = result_member(line, i)
            if doc.get("ok") is not True:
                fail(f"fan-out connection {c}: not ok: {line}")
            by_id[doc.get("id")] = json.dumps(doc.get("result"),
                                              sort_keys=True)
        if len(by_id) != len(batch):
            fail(f"fan-out connection {c}: {len(by_id)} responses for "
                 f"{len(batch)} requests")
        if results is not None and by_id != results:
            fail("fan-out requests gave different results on "
                 "different connections")
        results = by_id


def wide_measure_qasm(buggy):
    """Recycle one qubit through 13 measurement rounds (2^13 outcome
    histories — past the exact oracle's branch cap) with a persistent
    prep defect on a second qubit."""
    lines = ["OPENQASM 2.0;", "qreg q[2];"]
    lines += [f"creg m_r{r}[1];" for r in range(13)]
    lines += ["h q[0];", "measure q[0] -> m_r0[0];",
              ("x" if buggy else "h") + " q[1];"]
    for r in range(1, 13):
        lines += ["h q[0];", f"measure q[0] -> m_r{r}[0];"]
    return "\n".join(lines) + "\n"


def check_derive_error_survival(client, socket_path):
    """One client, one connection, three requests: the over-cap exact
    locate must come back as a structured error — and the daemon must
    keep answering on the same socket afterwards."""
    wide = {
        "command": "locate",
        "circuit": wide_measure_qasm(True),
        "reference": wide_measure_qasm(False),
        "mode": "resimulate",
        "ensemble_size": 64,
        "oracle_trials": 2048,
    }
    batch = [
        json.dumps({"id": "over-cap", "oracle_mode": "exact", **wide}),
        json.dumps({"id": "after", "command": "ping"}),
        json.dumps({"id": "retry", "oracle_mode": "sampled", **wide}),
    ]
    proc = subprocess.run(
        [client, "--socket", socket_path],
        input="\n".join(batch) + "\n", capture_output=True,
        text=True, timeout=120)
    if proc.returncode != 0:
        fail("connection died after the over-cap request: client "
             f"exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) != 3:
        fail(f"expected 3 responses on one connection, got "
             f"{len(lines)}: {proc.stdout!r}")
    over_cap, after, retry = (result_member(line, i)
                              for i, line in enumerate(lines))
    if over_cap.get("ok") is not False:
        fail(f"over-cap exact locate was not an error: {lines[0]}")
    err = over_cap.get("error", {})
    if "exceeded its cap" not in err.get("message", ""):
        fail(f"over-cap error does not name the cap: {err}")
    if "measure" not in err.get("instruction", ""):
        fail(f"over-cap error does not name the instruction: {err}")
    if after.get("ok") is not True:
        fail(f"daemon stopped serving after a derive error: "
             f"{lines[1]}")
    if retry.get("ok") is not True:
        fail(f"sampled-mode retry failed: {lines[2]}")
    if retry.get("result", {}).get("bug_found") is not True:
        fail("sampled-mode retry missed the wide-measurement defect: "
             f"{lines[2]}")


def ladder_qasm(n, buggy):
    """An n-qubit GHZ ladder; the suspect adds one T mid-ladder."""
    lines = ["OPENQASM 2.0;", f"qreg q[{n}];", "h q[0];"]
    for i in range(1, n):
        lines.append(f"cx q[{i - 1}],q[{i}];")
        if buggy and i == n // 2:
            lines.append(f"t q[{i}];")
    return "\n".join(lines) + "\n"


def check_rejection_survival(client, socket_path):
    """One connection: every locate the locator rejects at the default
    12-qubit limit and plans the Session rejects, each answered with
    the library's own error and followed by a ping; then a
    first-instruction defect, which the daemon must bracket at
    [0, 1)."""
    def locate(suspect, reference, **fields):
        return {"command": "locate", "circuit": suspect,
                "reference": reference, **fields}

    def plan(command, circuit, item):
        return {"command": command, "circuit": circuit, "plan": [item],
                "ensemble_size": 64}

    bell = "OPENQASM 2.0;\nqreg a[1];\nqreg b[1];\nh a[0];\ncx a[0],b[0];\n"
    measure_first = ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
                     "measure q[0] -> c[0];\nh q[1];\n")
    rejections = [
        ("swap-test width gate",
         locate(ladder_qasm(12, True), ladder_qasm(12, False),
                family="swap_test"),
         "support at most 11 qubits (12 requested)"),
        ("register family on the full space",
         locate(ladder_qasm(3, True), ladder_qasm(3, False),
                family="rotated_marginal"),
         "rotated-marginal probes assert on one register's marginal"),
        ("auto on a register pair",
         locate(bell, bell + "x b[0];\n", family="auto",
                register="a", register_b="b"),
         "support ProbeFamily::MixtureMarginal only (got auto)"),
        ("mismatched qubit spaces",
         locate(ladder_qasm(3, True), ladder_qasm(4, False)),
         "different qubit spaces (3 vs 4 qubits)"),
        ("measurement-leading sample_final_state pair",
         locate(measure_first + "x q[1];\n", measure_first + "h q[1];\n",
                mode="sample_final_state"),
         "no probeable instruction boundary"),
        # 62 bytes that once made the parser allocate the register
        # before the 12-qubit limit was checked.
        ("20,000,000-qubit register",
         {"command": "lint", "circuit": "qreg q[20000000];\nh q[0];\n"},
         "the program would use 20000000 qubits (at most 12 accepted)"),
    ]
    # A source breakpoint named like the Session's first boundary
    # marker, probed through "after": once fatal to the daemon.
    clash = ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
             "// qsa.breakpoint qsa_session_b0\n")
    for command in ("check", "analyze"):
        rejections += [
            (f"{command}: source breakpoint named like a boundary marker",
             plan(command, clash, {"after": 1, "expect": "superposition",
                                   "register": "q"}),
             "duplicate breakpoint label 'qsa_session_b0'"),
            (f"{command}: unknown register",
             plan(command, bell, {"after": 1, "expect": "superposition",
                                  "register": "nope"}),
             "plan[0]: no register named 'nope'"),
        ]
    rejections = [(name, json.dumps({"id": name, **request}), message)
                  for name, request, message in rejections]
    # Raw lines the JSON parser rejects: 100,000 nested arrays once
    # overflowed its stack and took the daemon down, and an
    # 80,000-member object took seconds to parse.
    rejections += [
        ("100,000 nested arrays", "[" * 100000,
         "nesting deeper than 64 levels"),
        ("80,000-member object",
         json.dumps({f"k{i}": 0 for i in range(80000)}),
         "unknown field 'k0'"),
    ]
    first_defect = locate(
        "OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        id="first-defect")
    batch = []
    for _, line, _ in rejections:
        batch.append(line)
        batch.append(json.dumps({"id": "ping", "command": "ping"}))
    batch.append(json.dumps(first_defect))
    proc = subprocess.run(
        [client, "--socket", socket_path],
        input="\n".join(batch) + "\n", capture_output=True,
        text=True, timeout=120)
    if proc.returncode != 0:
        fail("connection died during the rejected requests: client "
             f"exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) != len(batch):
        fail(f"expected {len(batch)} responses on one connection, got "
             f"{len(lines)}: {proc.stdout!r}")
    docs = [result_member(line, i) for i, line in enumerate(lines)]
    for k, (name, _, message) in enumerate(rejections):
        rejected, ping = docs[2 * k], docs[2 * k + 1]
        if rejected.get("ok") is not False:
            fail(f"{name}: the request was not rejected: {lines[2 * k]}")
        got = rejected.get("error", {}).get("message", "")
        if message not in got:
            fail(f"{name}: error {got!r} lacks {message!r}")
        if ping.get("ok") is not True:
            fail(f"daemon stopped serving after {name}: "
                 f"{lines[2 * k + 1]}")
    result = docs[-1].get("result", {})
    if docs[-1].get("ok") is not True or \
            result.get("bug_found") is not True or \
            (result.get("last_passing"), result.get("first_failing")) \
            != (0, 1):
        fail(f"first-instruction defect not bracketed at [0, 1): "
             f"{lines[-1]}")


def check_spans_on_dispatchers(events):
    """Every library span must share its thread with serve.request
    spans: the daemon runs each request inline on its dispatcher."""
    dispatchers = {e.get("tid") for e in events
                   if e.get("name") == "serve.request"}
    library = ("runtime.", "locate.", "assertions.", "session.",
               "analyze.")
    stray = collections.Counter(
        (e.get("name"), e.get("tid")) for e in events
        if e.get("name", "").startswith(library) and
        e.get("tid") not in dispatchers)
    if stray:
        listed = ", ".join(f"{n} x{c} on tid {t}"
                           for (n, t), c in sorted(stray.items()))
        fail("library spans ran off the dispatcher threads "
             f"{sorted(dispatchers)}: {listed}")


# Each case is rejected by the flag parser before a socket or thread
# exists. The order runs first the cases a lax parser would survive
# (such a daemon starts listening, and the run fails when its 10 s
# wait times out) and the wrapped-around -1 last.
BAD_FLAGS = [
    ("--workers", "12abc"),
    ("--workers", "257"),
    ("--queue", "0"),
    ("--max-qubits", "-1"),
    ("--store-max-entries", "1e3"),
    ("--workers", "-1"),
]


def check_flag_rejections(serve, workdir):
    """Every bad numeric flag: exit 2, the flag named on stderr, and
    never "listening on"."""
    socket_path = os.path.join(workdir, "rejected.sock")
    for flag, value in BAD_FLAGS:
        try:
            proc = subprocess.run(
                [serve, "--socket", socket_path, flag, value],
                capture_output=True, text=True, timeout=10)
        except subprocess.TimeoutExpired:
            fail(f"{flag} {value}: qsa_serve started instead of "
                 "rejecting the value")
        if "listening on" in proc.stdout:
            fail(f"{flag} {value}: qsa_serve started listening")
        if proc.returncode != 2:
            fail(f"{flag} {value}: exit status {proc.returncode}, "
                 "expected 2")
        if flag not in proc.stderr or "usage:" not in proc.stderr:
            fail(f"{flag} {value}: stderr does not name the flag and "
                 f"show the usage: {proc.stderr!r}")
        if os.path.exists(socket_path):
            fail(f"{flag} {value}: left a socket file behind")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--client", required=True)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="qsa_smoke_")
    os.makedirs(workdir, exist_ok=True)
    socket_path = os.path.join(workdir, "serve.sock")
    store_dir = os.path.join(workdir, "store")
    trace_path = os.path.join(workdir, "serve_trace.json")

    env = dict(os.environ, QSA_TRACE=trace_path)
    daemon = subprocess.Popen(
        [args.serve, "--socket", socket_path, "--store", store_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        line = daemon.stdout.readline()
        if "listening on" not in line:
            fail(f"daemon never came up: {line!r}")

        requests = make_requests(args.clients)
        cold = check_round(requests, run_round(
            args.client, socket_path, requests))

        # Round two replays the identical batch against the now-warm
        # store; every result must come back byte-identical.
        warm = check_round(requests, run_round(
            args.client, socket_path, requests))
        for key, result in cold.items():
            if warm.get(key) != result:
                fail("warm-store replay changed a result:\n"
                     f"  request: {key}\n  cold: {result}\n"
                     f"  warm: {warm.get(key)}")

        check_fan_out_round(args.client, socket_path)
        check_derive_error_survival(args.client, socket_path)
        check_rejection_survival(args.client, socket_path)

        if not any(files for _, _, files in os.walk(store_dir)):
            fail(f"oracle store {store_dir} persisted nothing")
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
    status = daemon.wait(timeout=60)
    if status != 0:
        fail(f"daemon exited {status} on SIGTERM "
             f"(output: {daemon.stdout.read()!r})")

    # Graceful exit ran atexit hooks: the trace file must be there
    # and well-formed.
    deadline = time.time() + 10
    while not os.path.exists(trace_path) and time.time() < deadline:
        time.sleep(0.1)
    try:
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as err:
        fail(f"QSA_TRACE flush missing or malformed: {err}")
    if "traceEvents" not in trace:
        fail("trace file has no traceEvents")
    if not any(e.get("name") == "serve.request"
               for e in trace["traceEvents"]):
        fail("trace has no serve.request spans")
    check_spans_on_dispatchers(trace["traceEvents"])

    check_flag_rejections(args.serve, workdir)

    print(f"serve_smoke: OK ({args.clients} concurrent clients, "
          f"{len(trace['traceEvents'])} trace events, "
          f"{len(BAD_FLAGS)} bad flags rejected)")


if __name__ == "__main__":
    main()
