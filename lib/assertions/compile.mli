(** The compiled assertion monitor: each mined SCI becomes one flat
    specialized [Trace.Record.t -> bool] closure (constants folded,
    membership sets pre-sorted, common comparison shapes open-coded), and
    records dispatch to their per-point assertion batch through an
    interned point table fronted by a last-point cache — the same
    technique the mining engine uses, exploiting the fact that trace
    points are per-branch mnemonic literals so [String.equal] usually
    hits on physical equality. Monitor cost per retired instruction
    approaches a function call.

    A compiled battery is immutable — the last-point cache belongs to
    each scan — so one [t] may be shared by scans on several domains at
    once.

    The interpretive {!Monitor} is the reference oracle: for any battery
    and trace, [run] returns exactly the firing list [Monitor.run]
    returns (same assertions, same steps, same order). That equality is
    pinned by a QCheck property and by the mutbench CI gate. *)

type t

val compile : Ovl.t list -> t
(** Compile a battery. Cost is linear in the battery and paid once;
    amortized over every trace the battery is checked against. *)

val size : t -> int
(** Number of assertions in the compiled battery. *)

val run : t -> Trace.Record.t list -> Monitor.firing list
(** Every firing, identical to [Monitor.run] on the source battery. *)

val first_firing : ?ignore:bool array -> t -> Trace.Record.t list ->
  Monitor.firing option
(** The first firing in trace order, evaluating no further records once
    it is found; [step] is the detection latency in retired
    instructions. [ignore.(i)] masks the [i]-th battery assertion
    (clean-run discounting in the mutant campaign: an assertion that
    already fires on the clean processor detects nothing). Raises
    [Invalid_argument] when the mask length is not [size t]. *)

val detects : ?ignore:bool array -> t -> Trace.Record.t list -> bool

val fired_set : t -> Trace.Record.t list -> bool array
(** [fired_set t records].(i) is whether the [i]-th battery assertion
    fires anywhere in the trace — the clean-run mask fed back to
    [first_firing ~ignore]. *)

val fired_assertions : t -> Trace.Record.t list -> Ovl.t list
(** The distinct assertions that fired at least once, in battery order. *)

(** {1 Live scans}

    The monitor beside a running processor (§5.6): each scan drives a
    prepared machine through {!Trace.Runner.run_fold} and checks every
    fused record the moment it retires, so no trace is materialised.
    The record sequence and step numbering are those of
    {!Trace.Runner.capture} on the same machine and [config], so each
    live scan answers exactly what its list version answers over the
    captured trace. *)

val first_firing_live :
  ?ignore:bool array -> ?config:Trace.Runner.config -> t -> Cpu.Machine.t ->
  Monitor.firing option
(** {!first_firing} over the records the machine produces, ending the
    run at the first firing: nothing after it is simulated. Counts
    records, evaluations and firings like {!first_firing}, but observes
    no [monitor.compiled.run_ns] (the interval would time the
    simulator). *)

val fired_set_live :
  ?config:Trace.Runner.config -> t -> Cpu.Machine.t -> bool array
(** {!fired_set} over the records of a whole run of the machine. *)
