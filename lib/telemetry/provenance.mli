(** Provenance manifests: the context needed to regenerate any
    artifact written to [results/] or by the bench harness.

    A manifest records the git revision ([git describe], "unknown"
    outside a work tree), the exact command line, the OCaml version,
    the effective domain count, every [CKPT_*] environment knob, and
    caller-supplied parameters (scenario settings, seeds). *)

val manifest : ?extra:(string * string) list -> unit -> string
(** The manifest as a JSON document.  [extra] lands under
    ["parameters"]. *)

val sidecar_path : string -> string
(** [sidecar_path p] is [p ^ ".meta.json"]. *)

val write_sidecar : ?extra:(string * string) list -> path:string -> unit -> unit
(** Write the manifest next to [path].  Never raises (a sidecar must
    not break the write of the artifact itself). *)

val env_int : string -> want:string -> valid:(int -> bool) -> int option
(** [env_int name ~want ~valid] reads the [CKPT_*] knob [name] as an
    integer.  Unset or blank is [None]; so is a malformed value (not an
    integer, or rejected by [valid]), which also warns on stderr, once
    per distinct value: [ckpt: ignoring malformed NAME="v" (want WANT;
    using the default)].  Every integer knob reads through here. *)

val env_path : string -> string option
(** The [CKPT_*] knob [name] as a path: [None] when unset or blank, as
    for {!env_int}.  Every path knob reads through here. *)

val domain_count : unit -> int
(** The effective fan-out width: [CKPT_DOMAINS] if valid (a malformed
    value warns through {!env_int}), else the runtime's recommended
    domain count. *)
