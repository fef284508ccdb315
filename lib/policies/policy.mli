(** The checkpointing-policy interface.

    A policy is consulted at every decision point of an execution —
    job start, after each committed checkpoint, after each completed
    recovery (Section 2.2's function [f(omega | tau)]) — and answers
    with the size of the next chunk of work to execute before
    checkpointing again.

    Policies may be stateful across one execution (the DP policies
    follow a precomputed plan); [instantiate] produces a fresh,
    unentangled decision function per simulated execution. *)

type phase =
  | Start  (** first decision of the execution *)
  | After_checkpoint  (** previous chunk committed successfully *)
  | After_recovery  (** a failure struck; recovery just completed *)

(** The scalar fields are mutable so a driver stepping many executions
    (the engine's stripe loop) can reuse one record per execution
    instead of allocating one per decision.  Policies must read the
    fields they need within the call and never retain the record
    across decisions. *)
type observation = {
  mutable phase : phase;
  mutable remaining : float;
      (** work (seconds of [W(p)]) not yet checkpointed *)
  failure_units : int;
      (** independent failure sources (processors, or nodes when
          failures are node-grained). *)
  mutable min_age : float;
      (** time since the last platform-level failure; before any
          failure, the smallest initial unit age. *)
  iter_ages : (float -> unit) -> unit;
      (** iterate over every failure unit's time-since-last-failure;
          O(units), so policies should call it sparingly. *)
  summarize :
    nexact:int -> napprox:int -> Ckpt_distributions.Distribution.t -> Ckpt_core.Age_summary.t;
      (** the {!Ckpt_core.Age_summary} of the platform's current ages.
          Callers that maintain incremental age state (the engine)
          answer in O(nexact + napprox log units) without an O(units)
          pass; {!summarize_of_iter} is the build-from-scratch fallback
          for observation constructors without such state.  Both are
          bit-identical. *)
}

type instance = observation -> float option
(** Returns the next chunk size in seconds, in (0, remaining]
    (callers clamp), or [None] when the policy cannot produce a
    meaningful chunk (the paper's Liu heuristic on small intervals). *)

type t = {
  name : string;
  recipe : string;
      (** What the policy computes: its name and every parameter it
          was built with, floats in [%h] and defaults resolved to
          their values.  Two policies with equal recipes make the same
          decisions on the same scenario, so the sweep store keys
          units by recipes rather than names. *)
  instantiate : unit -> instance;
  decide : instance option;
      (** [Some f] declares that the policy's decision is a pure
          function of the {e scalar} observation fields alone —
          [phase], [remaining], [failure_units], [min_age] — reading
          neither [iter_ages] nor [summarize] and keeping no state
          across decisions.  A declaration only: no engine reads it;
          every execution runs its own [instantiate ()].  Stateful
          policies (the DP plans) and policies that consult the full
          age summary leave it [None]. *)
}

val summarize_of_iter :
  units:int ->
  iter_ages:((float -> unit) -> unit) ->
  nexact:int ->
  napprox:int ->
  Ckpt_distributions.Distribution.t ->
  Ckpt_core.Age_summary.t
(** [Age_summary.build] adapter for the {!observation.summarize} field
    of callers without incremental age state. *)

val stateless : string -> (observation -> float option) -> t
(** A policy whose decisions are a pure function of the observation —
    possibly including the full age summary, so it makes no
    pure-scalar claim ([decide = None]).  Use {!pure_scalar} when the
    decision reads only the scalar fields.  The recipe is the name: a
    parameter the closure captures must be part of the name, or the
    caller sets [recipe] itself. *)

val pure_scalar : string -> (observation -> float option) -> t
(** Like {!stateless}, additionally declaring ([decide = Some f]) that
    the decision depends only on the scalar observation fields.  No
    engine reads the declaration (see {!t.decide}).  The recipe is
    the name, as for {!stateless}. *)

val periodic : string -> period:float -> t
(** Checkpoint every [period] seconds of work: chunks of
    [min period remaining].  [None] if [period <= 0].  Pure-scalar
    (reads only [remaining]).  Recipe: [name@<period in %h>]. *)

val clamp_chunk : remaining:float -> float -> float
(** Clamp a proposed chunk into (0, remaining]. *)
