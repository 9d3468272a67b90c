(** The persistent mining service.

    One select loop owns every socket; jobs run on {!Scheduler} worker
    domains and completed responses come back to the loop over a
    self-pipe. Per-client sessions hold incremental engine state
    ({!Scifinder_core.Pipeline.Session}), are served fair round-robin,
    refuse work beyond a bounded inflight window with an explicit
    [Busy], and are evicted after [idle_timeout] of inactivity. *)

type listen = Unix_sock of string | Tcp of string * int

type config = {
  listen : listen;
  jobs : int;            (** scheduler worker domains *)
  max_inflight : int;    (** per-session queued+running bound *)
  idle_timeout : float;  (** seconds; [0.] disables eviction *)
  cache_dir : string option;
      (** the mining cache ({!Scifinder_core.Pipeline.mine}) for every
          session *)
  mine_jobs : int;       (** per-session mining parallelism; [1] is the
                             byte-identity reference *)
}

val default_config : listen -> config
(** 2 workers, inflight window 4, 300 s idle timeout, no cache,
    [mine_jobs = 1]. *)

type t

val create : config -> t
(** Bind and listen (unlinking a stale Unix socket path first). Raises
    [Unix.Unix_error] if the address is unavailable. *)

val sockaddr : t -> Unix.sockaddr
(** The bound address — resolves the real port of [Tcp (_, 0)]. *)

val run : t -> unit
(** Serve until {!stop} or a [Shutdown] request, then shut down
    gracefully: stop accepting, run every queued job, drain every
    connection's output, join the workers, flush the global telemetry
    sink, and remove the socket. Blocks; spawn a domain to run
    alongside other work. *)

val stop : t -> unit
(** Request graceful shutdown. Async-signal-safe (one atomic store and
    one nonblocking pipe write) — install it directly as the
    SIGINT/SIGTERM handler. *)
