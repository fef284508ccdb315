(** Section 8 extension: the energy/makespan trade-off of the
    checkpoint period.  Short periods burn checkpoint I/O energy;
    long periods burn recomputation energy.  The energy-optimal period
    is shorter than the makespan-optimal one: with
    {!Ckpt_simulator.Energy.default_power} a second of checkpoint I/O
    (40 W) costs a third of a second of recomputation (120 W), so to
    first order T_E ≈ T_M·√(P_io/P_compute) ≈ 0.58·T_M. *)

type point = {
  period : float;
  average_makespan : float;  (** seconds *)
  average_energy : float;  (** joules *)
}

type t = {
  title : string;
  points : point list;
  makespan_optimal_period : float;
  energy_optimal_period : float;
}

val tradeoff :
  ?store:Sweep_store.t ->
  experiment:string ->
  scenario:Ckpt_simulator.Scenario.t ->
  power:Ckpt_simulator.Energy.power ->
  periods:float list ->
  replicates:int ->
  unit ->
  point list
(** One point per period: the periodic policy's average makespan and
    energy over its completed runs on shared trace sets, through
    {!Sweep_store.vectors}. *)

val run :
  ?config:Config.t ->
  ?power:Ckpt_simulator.Energy.power ->
  ?processors:int ->
  preset:Ckpt_platform.Presets.t ->
  dist_kind:Setup.dist_kind ->
  unit ->
  t

val print : ?config:Config.t -> unit -> unit
(** Prints the trade-off table and writes [energy.csv] (period, mean
    makespan in seconds, mean energy in joules) under
    {!Report.results_dir}. *)
