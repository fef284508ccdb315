(* What one repeat of an in-process workload computes, in the child
   process the harness spawns for it: the plain calls the study modules
   make, or the traced replay of those calls with spans around every
   layer boundary.  Only stable public entry points are used — Setup,
   Evaluation, Scenario, the Policy.t record, Sweep_store, Metrics and
   Domain_pool — so engine and scheduler internals can change under the
   benchmark without editing it. *)

module E = Ckpt_experiments
module S = Ckpt_simulator
module P = Ckpt_platform
module Policy = Ckpt_policies.Policy
module Pool = Ckpt_parallel.Domain_pool
module Metrics = Ckpt_telemetry.Metrics
module Json = Ckpt_telemetry.Json

type point = {
  label : string;
  processors : int;
  scenario : E.Config.t -> S.Scenario.t;
  dp_makespan : bool;
  liu : bool;
}

let weibull = E.Setup.Weibull 0.7

let petascale_point ~liu processors =
  let preset = P.Presets.petascale () in
  {
    label = Printf.sprintf "p%d" processors;
    processors;
    scenario =
      (fun config ->
        E.Setup.scenario ~config
          ~dist:(E.Setup.distribution weibull ~mtbf:preset.P.Presets.processor_mtbf)
          ~preset ~workload_model:P.Workload.Embarrassingly_parallel ~processors ());
    dp_makespan = false;
    liu;
  }

(* Table4.run: the whole Jaguar-sized machine, Liu left out. *)
let table4 = [ petascale_point ~liu:false P.Presets.jaguar_processors ]

(* Sequential_tables.run ~dist_kind:(Weibull 0.7): one processor, three
   MTBFs, DPMakespan in the roster. *)
let table3 =
  List.map
    (fun (label, mtbf) ->
      let preset = P.Presets.one_processor ~mtbf in
      {
        label;
        processors = 1;
        scenario =
          (fun config ->
            E.Setup.scenario ~config ~dist:(E.Setup.distribution weibull ~mtbf) ~preset
              ~workload_model:P.Workload.Embarrassingly_parallel ~processors:1 ());
        dp_makespan = true;
        liu = true;
      })
    [ ("mtbf-1h", P.Units.hour); ("mtbf-1d", P.Units.day); ("mtbf-1w", P.Units.week) ]

(* Scaling_study.figure4 on a quick run: the ends and the middle of the
   preset's processor counts.  The traced run checks the CSV it renders
   from these points byte for byte against the CLI's fig4.csv. *)
let fig4 =
  let counts = (P.Presets.petascale ()).P.Presets.job_processor_counts in
  let n = List.length counts in
  List.filteri (fun i _ -> i = 0 || i = n / 2 || i = n - 1) counts
  |> List.map (petascale_point ~liu:true)

let policies pt scenario = E.Setup.policies ~dp_makespan:pt.dp_makespan ~liu:pt.liu scenario

(* -- output check ---------------------------------------------------------

   Every reported cell, in row order, as exact hex floats.  Rendering
   named fields (rather than marshalling the record) keeps the digest
   stable when a field is added to Evaluation.table. *)

let render_table buf (t : S.Evaluation.table) =
  let f x = Buffer.add_string buf (Printf.sprintf " %h" x) in
  let i x = Buffer.add_string buf (Printf.sprintf " %d" x) in
  let row (r : S.Evaluation.policy_result) =
    Buffer.add_string buf r.policy_name;
    List.iter f
      [ r.average_degradation; r.std_degradation; r.average_makespan; r.average_failures ];
    i r.successes;
    i r.max_failures;
    List.iter f [ r.average_chunks; r.min_chunk; r.max_chunk ];
    (match r.profile with
    | None -> Buffer.add_string buf " none"
    | Some p ->
        List.iter f
          [
            p.mk_p50; p.mk_p95; p.mk_p99; p.mk_mean; p.mk_ci95; p.deg_ci95; p.useful_s;
            p.checkpoint_s; p.wasted_s; p.recovery_s; p.stall_s; p.useful_frac;
            p.checkpoint_frac; p.wasted_frac; p.recovery_frac; p.stall_frac;
          ]);
    Buffer.add_char buf '\n'
  in
  row t.lower_bound;
  List.iter row t.results;
  i t.replicates;
  i t.usable_replicates;
  Buffer.add_char buf '\n'

let digest tables =
  let buf = Buffer.create 4096 in
  List.iter (render_table buf) tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* -- plain run ------------------------------------------------------------ *)

(* The calls Table4.run / Sequential_tables.run make, with the roster
   construction timed apart: [(setup seconds summed over points, tables)]. *)
let plain ~config ~replicates points =
  let results =
    Pool.parallel_map_list
      (fun pt ->
        let t0 = Span.now () in
        let scenario = pt.scenario config in
        let policies = policies pt scenario in
        let setup = Span.now () -. t0 in
        (setup, S.Evaluation.degradation_table ~scenario ~policies ~replicates))
      points
  in
  (List.fold_left (fun acc (s, _) -> acc +. s) 0. results, List.map snd results)

(* -- traced replay ---------------------------------------------------------- *)

(* Time spent inside one policy's closures during one stripe. *)
type acc = {
  policy : string;
  lock : Mutex.t;
  mutable busy_s : float;  (** instantiate + decide *)
  mutable decides : int;
  mutable summarize_s : float;
  mutable summarizes : int;
  mutable first : float;
  mutable last : float;
}

let accs = ref []
let accs_lock = Mutex.create ()

let new_acc policy =
  let a =
    {
      policy;
      lock = Mutex.create ();
      busy_s = 0.;
      decides = 0;
      summarize_s = 0.;
      summarizes = 0;
      first = infinity;
      last = neg_infinity;
    }
  in
  Mutex.protect accs_lock (fun () -> accs := a :: !accs);
  a

let charge a ~t0 ~t1 ~decide =
  Mutex.protect a.lock (fun () ->
      a.busy_s <- a.busy_s +. (t1 -. t0);
      if decide then a.decides <- a.decides + 1;
      a.first <- Float.min a.first t0;
      a.last <- Float.max a.last t1)

(* The same policy with its closures timed.  [decide] keeps its
   Some/None, so the engine's decision memo behaves as without the
   wrapper; only policies that may consult the age summary (decide =
   None) get their observation's [summarize] timed. *)
let wrap a (p : Policy.t) =
  let timed ~decide f x =
    let t0 = Span.now () in
    let v = f x in
    charge a ~t0 ~t1:(Span.now ()) ~decide;
    v
  in
  let summarized (inst : Policy.instance) : Policy.instance =
   fun obs ->
    let summarize ~nexact ~napprox dist =
      let t0 = Span.now () in
      let s = obs.Policy.summarize ~nexact ~napprox dist in
      let dt = Span.now () -. t0 in
      Mutex.protect a.lock (fun () ->
          a.summarize_s <- a.summarize_s +. dt;
          a.summarizes <- a.summarizes + 1);
      s
    in
    inst { obs with Policy.summarize }
  in
  let instance inst =
    timed ~decide:true (if Option.is_some p.Policy.decide then inst else summarized inst)
  in
  {
    p with
    Policy.instantiate = (fun () -> instance (timed ~decide:false p.Policy.instantiate ()));
    decide = Option.map instance p.Policy.decide;
  }

(* Setup.policies, one constructor at a time so each gets its own span:
   every call rebuilds the cheap closed-form base (Young, DalyLow,
   DalyHigh, OptExp) and adds one optional member, kept in
   Setup.policies' order.  The traced table is checked bit for bit
   against the plain one, which also pins this order. *)
let traced_policies pt scenario =
  let build ?(dp_makespan = false) ?(dp_next_failure = false) ?(liu = false)
      ?(bouguerra = false) ?(period_lb = false) () =
    E.Setup.policies ~dp_makespan ~dp_next_failure ~liu ~bouguerra ~period_lb scenario
  in
  let base = Span.time ~cat:"policies.setup" "base" build in
  let last l = [ List.nth l (List.length l - 1) ] in
  let member ?(cat = "policies.setup") name on f =
    if on then Span.time ~cat name (fun () -> last (f ())) else []
  in
  base
  @ member "Bouguerra" true (build ~bouguerra:true)
  @ member "Liu" pt.liu (build ~liu:true)
  @ member ~cat:"simulator.period_search" "PeriodLB" true (build ~period_lb:true)
  @ member "DPNextFailure" true (build ~dp_next_failure:true)
  @ member "DPMakespan" pt.dp_makespan (build ~dp_makespan:true)

let region ~cat name n f =
  Span.time ~cat ~args:(fun _ -> [ ("tasks", Json.Num (float_of_int n)) ]) name (fun () ->
      Pool.parallel_init n (fun i -> Span.time ~cat:(cat ^ ".task") (Printf.sprintf "%s %d" name i)
                              (fun () -> f i)))

(* One stripe: its trace sets first (so generation is timed apart; the
   scenario cache then serves them to the engine), then the stripe
   through freshly wrapped policies, then one span per policy pass
   carrying the closure totals. *)
let traced_stripe ~scenario ~policies ~replicates stripe =
  let first, len = S.Evaluation.stripe_bounds ~replicates ~stripe in
  Span.time ~cat:"failures.trace_gen" "Scenario.traces" (fun () ->
      for replicate = first to first + len - 1 do
        ignore (S.Scenario.traces scenario ~replicate)
      done);
  let stripe_accs = List.map (fun p -> new_acc p.Policy.name) policies in
  let wrapped = List.map2 wrap stripe_accs policies in
  let partial =
    Span.time ~cat:"simulator.stripe" "Evaluation.stripe_partial" (fun () ->
        S.Evaluation.stripe_partial ~scenario ~policies:wrapped ~replicates ~stripe)
  in
  List.iter
    (fun a ->
      if a.first <= a.last then
        Span.add
          {
            Span.name = a.policy;
            cat = "policies.decide";
            tid = Span.tid ();
            start = a.first;
            stop = a.last;
            args =
              [
                ("decide_s", Json.Num a.busy_s);
                ("decide_calls", Json.Num (float_of_int a.decides));
                ("summarize_s", Json.Num a.summarize_s);
                ("summarize_calls", Json.Num (float_of_int a.summarizes));
              ];
          })
    stripe_accs;
  partial

(* The unit-key parameters Scaling_study.run folds in for Figure 4. *)
let fig4_params =
  [
    ("preset", (P.Presets.petascale ()).P.Presets.label);
    ("dist_kind", E.Setup.dist_kind_name weibull);
    ("workload", P.Workload.model_name P.Workload.Embarrassingly_parallel);
  ]

(* One point of a study: setup, its stripes in parallel, the reduce;
   then, with a store, the same table loaded back through Sweep_store
   as Scaling_study.run does.  Returns the computed and loaded tables. *)
let traced_point ~config ~replicates ?store pt =
  let scenario, policies =
    Span.time ~cat:"experiments.setup" pt.label (fun () ->
        let scenario =
          Span.time ~cat:"experiments.scenario" "Setup.scenario" (fun () -> pt.scenario config)
        in
        (scenario, traced_policies pt scenario))
  in
  let partials =
    region ~cat:"parallel.stripes" pt.label (S.Evaluation.stripe_count ~replicates)
      (traced_stripe ~scenario ~policies ~replicates)
  in
  let table =
    Span.time ~cat:"simulator.reduce" "Evaluation.table_of_partials" (fun () ->
        S.Evaluation.table_of_partials (Array.to_list partials))
  in
  let loaded =
    Option.map
      (fun store ->
        Span.time ~cat:"experiments.store_load" "Sweep_store.degradation_table" (fun () ->
            E.Sweep_store.degradation_table ~store ~params:fig4_params
              ~experiment:(Printf.sprintf "scaling_p%d" pt.processors)
              ~scenario ~policies ~replicates ()))
      store
  in
  (table, loaded)

let counter name =
  match Metrics.find name with Some (Metrics.Counter n) -> float_of_int n | _ -> 0.

(* hits ÷ lookups of the [<prefix>_hits] / [<prefix>_misses] counter pair *)
let hit_ratio prefix =
  let hits = counter (prefix ^ "_hits") and misses = counter (prefix ^ "_misses") in
  if hits +. misses > 0. then hits /. (hits +. misses) else 0.

type replay = {
  tables : S.Evaluation.table list;
  loaded : S.Evaluation.table list;  (** the same tables read back from the store, if any *)
  layers : (string * Json.t) list;
      (** per-layer numbers that need no wall-clock base; the harness adds
          coverage and overhead from the wall time it measures around
          this process *)
  policies : Json.t;  (** closure and constructor totals by policy *)
  top_s : float;  (** top-level span time *)
  spans : Span.t list;
}

(* The traced replay of a study: its points in parallel (as the study
   modules fan them out), each through [traced_point]. *)
let traced ~config ~replicates ?store points =
  Metrics.set_enabled true;
  let results =
    Span.time ~cat:"top" "points" (fun () ->
        region ~cat:"parallel.points" "points" (List.length points) (fun i ->
            traced_point ~config ~replicates ?store (List.nth points i)))
    |> Array.to_list
  in
  let spans = Span.all () in
  let total cat = Span.total ~cat spans in
  let per_policy = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let busy, calls, sum_s, sums =
        Option.value (Hashtbl.find_opt per_policy a.policy) ~default:(0., 0, 0., 0)
      in
      Hashtbl.replace per_policy a.policy
        (busy +. a.busy_s, calls + a.decides, sum_s +. a.summarize_s, sums + a.summarizes))
    !accs;
  let policy_total f = Hashtbl.fold (fun _ v acc -> acc +. f v) per_policy 0. in
  let policy name f = Option.fold ~none:0. ~some:f (Hashtbl.find_opt per_policy name) in
  let decide_s = policy_total (fun (b, _, _, _) -> b) in
  let summarize_s = policy_total (fun (_, _, s, _) -> s) in
  (* Utilization of the outermost fan-out that has work to share: the
     points when there are several, else the stripes of the one point. *)
  let utilization =
    let cat = if List.length points > 1 then "parallel.points" else "parallel.stripes" in
    let busy = total (cat ^ ".task") and region = total cat in
    if region > 0. then busy /. (region *. float_of_int (Pool.recommended_domains ())) else 0.
  in
  let num x = Json.Num x in
  let layers =
    [
      ("experiments.setup_s", num (total "experiments.setup"));
      ("simulator.period_search_s", num (total "simulator.period_search"));
      ("policies.setup_s", num (total "policies.setup"));
      ("failures.trace_gen_s", num (total "failures.trace_gen"));
      ("failures.trace_sets", num (counter "scenario/traces_generated"));
      ( "simulator.trace_cache_hit_ratio",
        num (hit_ratio "scenario/trace_cache") );
      ("core.age_summary_s", num summarize_s);
      ("core.age_summary_calls", num (policy_total (fun (_, _, _, n) -> float_of_int n)));
      ( "core.dpnf_plan_s",
        num (policy "DPNextFailure" (fun (b, _, s, _) -> b -. s)) );
      ("core.dpnf_solves", num (counter "dp_next_failure/solves"));
      ("core.dpnf_candidates", num (counter "dp_next_failure/candidates_scanned"));
      ( "core.dpm_decide_share",
        num
          (if decide_s > 0. then policy "DPMakespan" (fun (b, _, _, _) -> b) /. decide_s else 0.)
      );
      ("core.dpm_solves", num (counter "dp_makespan/solves"));
      ("core.dpm_cells", num (counter "dp_makespan/cells_solved"));
      ( "core.dpm_tlost_hit_ratio",
        num (hit_ratio "dp_makespan/tlost_cache") );
      ("policies.decide_s", num decide_s);
      ("policies.decide_calls", num (policy_total (fun (_, c, _, _) -> float_of_int c)));
      ( "simulator.decision_memo_hit_ratio",
        num (hit_ratio "engine/decision_memo") );
      ("simulator.engine_self_s", num (total "simulator.stripe" -. decide_s));
      ("simulator.reduce_s", num (total "simulator.reduce"));
      ("experiments.store_load_s", num (total "experiments.store_load"));
      ("parallel.utilization", num utilization);
    ]
  in
  let by_policy =
    Hashtbl.fold
      (fun name (busy, calls, sum_s, sums) acc ->
        ( name,
          Json.Obj
            [
              ("decide_s", num busy);
              ("decide_calls", num (float_of_int calls));
              ("summarize_s", num sum_s);
              ("summarize_calls", num (float_of_int sums));
              ("setup_s", num (Span.total ~name ~cat:"policies.setup" spans
                              +. Span.total ~name ~cat:"simulator.period_search" spans));
            ] )
        :: acc)
      per_policy []
    |> List.sort compare
  in
  {
    tables = List.map fst results;
    loaded = List.filter_map snd results;
    layers;
    policies = Json.Obj by_policy;
    top_s = total "top";
    spans;
  }
