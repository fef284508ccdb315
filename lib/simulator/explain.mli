(** Decision-timeline replay for [ckpt explain].

    Replays one (scenario, policy, replicate) deterministically through
    {!Engine.run} (traced) with the policy wrapped so every decision also
    records its {!Ckpt_policies.Rationale.t} — computed from the very
    observation the policy answered, so the annotated run is
    bit-identical to an unwrapped one.  The timeline pairs each
    decision with what actually happened to its chunk (committed vs
    destroyed, and the time lost), and the footer reconciles the
    engine's waste decomposition against {!Ckpt_telemetry.Tracer.totals}
    {e bitwise}. *)

type realized =
  | Committed of { work : float; checkpoint : float }
  | Destroyed of { lost : float; downtime : float; recovery : float; failures : int }

type decision = {
  index : int;
  at : float;
  chunk : float;
  remaining : float;
  rationale : Ckpt_policies.Rationale.t option;
  realized : realized;
}

type t = {
  policy_name : string;
  replicate : int;
  start_time : float;
      (** the scenario's absolute start clock — the footer reports the
          accounting tolerance at the clock the engine enforced it. *)
  outcome : Engine.outcome;
  decisions : decision list;
  declined : (float * float) option;
      (** [(at_time, remaining)] when the policy answered [None]. *)
  totals : Ckpt_telemetry.Tracer.totals;
  buffer : Ckpt_telemetry.Tracer.buffer;
      (** the replay's event stream, named [rep<replicate>/<policy>]:
          what [ckpt explain -o] exports through
          {!Ckpt_telemetry.Tracer.write}. *)
}

val run :
  scenario:Scenario.t -> policy:Ckpt_policies.Policy.t -> replicate:int -> t
(** Replay and annotate.  Deterministic in (scenario, policy,
    replicate): same traces, same decisions, same metrics as the plain
    {!Engine.run}. *)

val reconciles : t -> bool
(** True iff the run completed and every {!Ckpt_telemetry.Tracer.totals}
    component equals its [Engine.metrics] counterpart {e bitwise}. *)

val print : ?limit:int -> Format.formatter -> t -> unit
(** Render the annotated timeline (at most [limit] decisions;
    negative = all) and the reconciliation footer. *)
