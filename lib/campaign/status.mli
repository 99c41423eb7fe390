(** The campaign status server: live [/metrics] and [/status] over a
    Unix-domain socket and/or loopback TCP.

    [stabsim campaign --status-socket PATH] starts one of these next to
    the runner. It answers two endpoints while cells execute:

    - [/metrics] — Prometheus text exposition (version 0.0.4): every
      {!Stabobs.Registry} counter, gauge, label and distribution, plus
      a per-worker busy gauge from {!Runner.heartbeats}.
    - [/status] — one JSON document: campaign identity, per-worker
      heartbeats (current cell and elapsed time), settled/remaining
      cell counts, retry totals, and an ETA extrapolated from the mean
      executed-cell duration.

    Serving runs in its own [Domain] per listener, reading only atomics
    ({!Runner.progress}, {!Registry.snapshot}) — a scrape never blocks
    a worker and never takes a lock a worker holds. {!start} installs
    {!Stabobs.Obs.null_sink} so counters and gauges accumulate even
    when no other sink is on; the sink stays installed after {!stop}
    (sinks stack; [Obs.clear] at process exit removes it).

    This is the first network-facing surface of the tree and the
    skeleton for the future [stabsim serve]: the HTTP layer is
    deliberately minimal (HTTP/1.1, [GET] only, [Connection: close],
    requests capped at 8 KiB) and depends only on [Unix]. *)

type server

val start : ?socket:string -> ?port:int -> unit -> server
(** Start listening. [socket] is a Unix-domain socket path (an existing
    socket file at that path is replaced); [port] binds TCP on
    127.0.0.1 ([0] picks an ephemeral port — see {!port}). At least one
    must be given or the call raises [Invalid_argument]. Failures to
    bind raise [Unix.Unix_error]. *)

val stop : server -> unit
(** Close the listeners, join the serving domains, and unlink the
    socket path. In-flight responses finish; subsequent connections are
    refused. Idempotent. *)

val port : server -> int option
(** The TCP port actually bound ([Some] even when [port:0] was asked —
    the ephemeral port the kernel chose), [None] when only a Unix
    socket listener exists. *)

(** {1 Rendering} (exposed for tests and the CLI client) *)

(** {1 Client} (the [stabsim status] subcommand) *)

val client_fetch : target:string -> path:string -> (string, string) result
(** One HTTP GET against a running server. [target] is a socket path
    (anything containing [/] or naming an existing file), [:PORT] or
    [HOST:PORT] for TCP. Returns the response body on HTTP 200. *)

val render_status : Stabobs.Json.t -> string
(** Human rendering of a [/status] document: campaign header, cell
    tallies, ETA, one line per worker. *)
