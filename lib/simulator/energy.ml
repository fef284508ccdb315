type power = { compute : float; io : float; idle : float }

let create ~compute ~io ~idle =
  if compute < 0. || io < 0. || idle < 0. then invalid_arg "Energy.create: negative power";
  { compute; io; idle }

let default_power = { compute = 120.; io = 40.; idle = 25. }

let of_metrics power ~processors (m : Engine.metrics) =
  if processors <= 0 then invalid_arg "Energy.of_metrics: processors must be positive";
  let computing = m.Engine.useful_work +. m.Engine.wasted_time in
  let io_time = m.Engine.checkpoint_time +. m.Engine.recovery_time in
  float_of_int processors
  *. ((power.compute *. computing) +. (power.io *. io_time) +. (power.idle *. m.Engine.stall_time))
