module Prng = Bistpath_util.Prng
module Telemetry = Bistpath_telemetry.Telemetry

exception Injected of string

let sites =
  [
    "telemetry.write"; "allocator.leaf"; "pareto.leaf"; "service.journal";
    "service.result_io"; "service.worker"; "check.rule"; "cache.io";
    "fleet.heartbeat"; "fleet.claim"; "rtl.parse";
  ]

type site_state = { prob : float; prng : Prng.t }

let default_seed = 0xB157

(* [armed] is the fast-path switch: a single atomic load when injection
   is off (the production default). All slow-path state lives behind
   [mutex] so the fleet heartbeat domain can draw concurrently. *)
let armed = Atomic.make false
let mutex = Mutex.create ()
let table : (string, site_state) Hashtbl.t = Hashtbl.create 8
let initialized = ref false

let apply config ~seed =
  Hashtbl.reset table;
  (* One split child per site, derived in sorted-site order so the
     per-site stream depends only on (seed, site set), not on the order
     the configuration listed them. *)
  let root = Prng.create seed in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) config in
  List.iter
    (fun (site, prob) ->
      if prob > 0.0 then
        Hashtbl.replace table site { prob; prng = Prng.split root })
    sorted;
  Atomic.set armed (Hashtbl.length table > 0)

let parse_env spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun entry ->
         let entry = String.trim entry in
         if String.equal entry "" then None
         else
           match String.index_opt entry '=' with
           | None -> Some (entry, 1.0)
           | Some i ->
             let site = String.sub entry 0 i in
             let p = String.sub entry (i + 1) (String.length entry - i - 1) in
             (match float_of_string_opt p with
             | Some p when p >= 0.0 && p <= 1.0 -> Some (site, p)
             | Some _ | None ->
               Printf.eprintf
                 "bistpath: BISTPATH_INJECT: bad probability %S for site %s (want 0..1); \
                  ignoring this site\n"
                 p site;
               None))

let init_from_env () =
  let seed =
    match Sys.getenv_opt "BISTPATH_INJECT_SEED" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> default_seed)
    | None -> default_seed
  in
  match Sys.getenv_opt "BISTPATH_INJECT" with
  | None | Some "" -> ()
  | Some spec -> apply (parse_env spec) ~seed

let ensure () =
  if not !initialized then begin
    Mutex.lock mutex;
    if not !initialized then begin
      init_from_env ();
      initialized := true
    end;
    Mutex.unlock mutex
  end

let configure ?(seed = default_seed) config =
  Mutex.lock mutex;
  initialized := true;
  apply config ~seed;
  Mutex.unlock mutex

let enabled () =
  ensure ();
  Atomic.get armed

let should_fire site =
  if not (Atomic.get armed) && !initialized then false
  else begin
    ensure ();
    if not (Atomic.get armed) then false
    else begin
      Mutex.lock mutex;
      let hit =
        match Hashtbl.find_opt table site with
        | None -> false
        | Some st -> st.prob >= 1.0 || Prng.float st.prng 1.0 < st.prob
      in
      Mutex.unlock mutex;
      if hit then Telemetry.incr "resilience.injected";
      hit
    end
  end

let fire site = if should_fire site then raise (Injected site)

let fire_sys_error site =
  if should_fire site then
    raise (Sys_error (Printf.sprintf "injected fault at site %s" site))
