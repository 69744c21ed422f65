module Table = Bistpath_util.Table
module Json = Bistpath_util.Json

type attr = string * string

(* --- latency histograms -------------------------------------------- *)

module Histogram = struct
  (* Fixed power-of-two log buckets: bucket 0 holds value 0 (negative
     observations clamp to 0); bucket [k >= 1] holds [2^(k-1), 2^k - 1].
     63 buckets cover the whole non-negative [int] range, so the layout
     never depends on the data and two histograms always merge
     bucket-for-bucket. *)
  let bucket_count = 63

  type t = {
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;  (* meaningful only when count > 0 *)
    mutable max_v : int;
    buckets : int array;
  }

  let create () =
    { count = 0; sum = 0; min_v = max_int; max_v = 0; buckets = Array.make bucket_count 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
      Stdlib.min (bucket_count - 1) (bits v 0)
    end

  let bucket_lower = function 0 -> 0 | k -> 1 lsl (k - 1)

  let bucket_upper k =
    if k <= 0 then 0 else if k >= bucket_count - 1 then max_int else (1 lsl k) - 1

  let observe t v =
    let v = Stdlib.max 0 v in
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = t.max_v
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  (* Upper bound of the bucket holding the rank-ceil(q*count) smallest
     sample, clamped to the observed [min, max] — so a single-sample
     histogram answers every quantile exactly, and the estimate can
     never leave the observed range. Empty histograms answer 0. *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
      let rec find b cum =
        if b >= bucket_count then t.max_v
        else
          let cum = cum + t.buckets.(b) in
          if cum >= rank then
            Stdlib.min t.max_v (Stdlib.max (min_value t) (bucket_upper b))
          else find (b + 1) cum
      in
      find 0 0
    end

  let merge_into ~into src =
    if src.count > 0 then begin
      into.count <- into.count + src.count;
      into.sum <- into.sum + src.sum;
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v;
      Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets
    end

  let copy t = { t with buckets = Array.copy t.buckets }

  let nonzero_buckets t =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if t.buckets.(i) > 0 then acc := (bucket_lower i, t.buckets.(i)) :: !acc
    done;
    !acc
end

type span = {
  name : string;
  attrs : attr list;
  depth : int;
  parent : int option;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable counters : (string * int) list;
}

type track_event = {
  ev_name : string;
  track : int;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_attrs : attr list;
}

type t = {
  tbl : (int, span) Hashtbl.t;  (* index -> span, indices are dense *)
  mutable len : int;
  mutable stack : int list;  (* open span indices, innermost first *)
  mutable snapshots : (string * int) list list;  (* counters at open *)
  values : (string, int) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  gauge_names : (string, unit) Hashtbl.t;  (* names ever written by [set] *)
  mutable gauge_samples : (string * int64 * int) list;  (* newest first *)
  mutable gauge_sample_count : int;
  mutable instants : (string * attr list * int64) list;  (* newest first *)
  mutable instant_count : int;
  mutable track_events : track_event list;  (* newest first *)
  mutable track_event_count : int;
}

(* Sample streams are bounded so a long-lived recorder (a serving
   daemon) cannot grow without limit; past the cap new samples are
   dropped and counted in [telemetry.dropped_samples]. Counters,
   gauges' last values and histograms keep absorbing forever — they
   are fixed-size. *)
let max_gauge_samples = 8192
let max_instants = 4096
let max_track_events = 65536

let clock : (unit -> int64) ref = ref Monotonic_clock.now
let set_clock f = clock := f
let use_monotonic_clock () = clock := Monotonic_clock.now

let current : t option ref = ref None

(* One process-wide lock serializes every mutation of (and every read
   from) the installed recorder, so worker domains may bump counters
   concurrently with the main domain's spans. Instrumentation with no
   recorder installed stays lock-free: the [!current] check happens
   before any locking. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | x ->
    Mutex.unlock lock;
    x
  | exception e ->
    Mutex.unlock lock;
    raise e

let create () =
  {
    tbl = Hashtbl.create 32;
    len = 0;
    stack = [];
    snapshots = [];
    values = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    gauge_names = Hashtbl.create 8;
    gauge_samples = [];
    gauge_sample_count = 0;
    instants = [];
    instant_count = 0;
    track_events = [];
    track_event_count = 0;
  }

let install r = current := Some r
let uninstall () = current := None
let enabled () = Option.is_some !current
let installed () = !current
let now () = !clock ()

let snapshot r = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.values []

let delta_since r snap =
  Hashtbl.fold
    (fun k v acc ->
      let before = match List.assoc_opt k snap with Some x -> x | None -> 0 in
      if v <> before then (k, v - before) :: acc else acc)
    r.values []
  |> List.sort compare

let open_span r name attrs =
  let parent = match r.stack with [] -> None | i :: _ -> Some i in
  let s =
    {
      name;
      attrs;
      depth = List.length r.stack;
      parent;
      start_ns = !clock ();
      dur_ns = -1L;
      counters = [];
    }
  in
  let idx = r.len in
  Hashtbl.replace r.tbl idx s;
  r.len <- r.len + 1;
  r.stack <- idx :: r.stack;
  r.snapshots <- snapshot r :: r.snapshots;
  idx

(* Closes intervening spans too, so an exotic control path that escapes a
   nested [with_span] still leaves a well-formed trace. *)
let close_span r idx =
  let now = !clock () in
  let rec pop () =
    match (r.stack, r.snapshots) with
    | i :: stack, snap :: snaps ->
      r.stack <- stack;
      r.snapshots <- snaps;
      let s = Hashtbl.find r.tbl i in
      s.dur_ns <- Int64.sub now s.start_ns;
      s.counters <- delta_since r snap;
      if i <> idx then pop ()
    | _ -> ()
  in
  pop ()

let with_span ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some r ->
    let idx = locked (fun () -> open_span r name attrs) in
    Fun.protect ~finally:(fun () -> locked (fun () -> close_span r idx)) f

let incr ?(by = 1) name =
  match !current with
  | None -> ()
  | Some r ->
    locked (fun () ->
        let v = match Hashtbl.find_opt r.values name with Some v -> v | None -> 0 in
        Hashtbl.replace r.values name (v + by))

let drop_sample r =
  let v =
    match Hashtbl.find_opt r.values "telemetry.dropped_samples" with
    | Some v -> v
    | None -> 0
  in
  Hashtbl.replace r.values "telemetry.dropped_samples" (v + 1)

let set name v =
  match !current with
  | None -> ()
  | Some r ->
    let ts = !clock () in
    locked (fun () ->
        Hashtbl.replace r.values name v;
        Hashtbl.replace r.gauge_names name ();
        if r.gauge_sample_count < max_gauge_samples then begin
          r.gauge_samples <- (name, ts, v) :: r.gauge_samples;
          r.gauge_sample_count <- r.gauge_sample_count + 1
        end
        else drop_sample r)

let observe name v =
  match !current with
  | None -> ()
  | Some r ->
    locked (fun () ->
        let h =
          match Hashtbl.find_opt r.hists name with
          | Some h -> h
          | None ->
            let h = Histogram.create () in
            Hashtbl.replace r.hists name h;
            h
        in
        Histogram.observe h v)

let instant ?(attrs = []) name =
  match !current with
  | None -> ()
  | Some r ->
    let ts = !clock () in
    locked (fun () ->
        if r.instant_count < max_instants then begin
          r.instants <- (name, attrs, ts) :: r.instants;
          r.instant_count <- r.instant_count + 1
        end
        else drop_sample r)

let add_timed ?(attrs = []) ~track name ~start_ns ~dur_ns =
  match !current with
  | None -> ()
  | Some r ->
    locked (fun () ->
        if r.track_event_count < max_track_events then begin
          r.track_events <-
            { ev_name = name; track; ev_start_ns = start_ns; ev_dur_ns = dur_ns;
              ev_attrs = attrs }
            :: r.track_events;
          r.track_event_count <- r.track_event_count + 1
        end
        else drop_sample r)

let collect f =
  let r = create () in
  let prev = !current in
  current := Some r;
  Fun.protect
    ~finally:(fun () -> current := prev)
    (fun () ->
      let x = f () in
      (x, r))

let spans r = locked (fun () -> List.init r.len (Hashtbl.find r.tbl))
let counters r = locked (fun () -> snapshot r) |> List.sort compare

let counter r name =
  locked (fun () ->
      match Hashtbl.find_opt r.values name with Some v -> v | None -> 0)

let histograms r =
  locked (fun () ->
      Hashtbl.fold (fun k h acc -> (k, Histogram.copy h) :: acc) r.hists [])
  |> List.sort compare

let histogram r name =
  locked (fun () -> Option.map Histogram.copy (Hashtbl.find_opt r.hists name))

let is_gauge r name = locked (fun () -> Hashtbl.mem r.gauge_names name)

let gauge_samples r = locked (fun () -> List.rev r.gauge_samples)
let instants r = locked (fun () -> List.rev r.instants)
let track_events r = locked (fun () -> List.rev r.track_events)

(* Fold a finished recording's scalar state into another recorder:
   counters add, gauges take [src]'s last value, histograms merge
   bucket-for-bucket. Spans and the bounded sample streams are NOT
   carried over — the use case is a long-lived aggregate recorder (the
   service metrics snapshot) absorbing short per-job recordings, which
   must stay O(metric names), not O(jobs). *)
let merge_into ~into src =
  if into == src then invalid_arg "Telemetry.merge_into: cannot merge a recorder into itself";
  let counters_of_src =
    locked (fun () ->
        ( snapshot src,
          Hashtbl.fold (fun k () acc -> k :: acc) src.gauge_names [],
          Hashtbl.fold (fun k h acc -> (k, Histogram.copy h) :: acc) src.hists [] ))
  in
  let cs, gauges, hs = counters_of_src in
  locked (fun () ->
      List.iter
        (fun (k, v) ->
          if List.mem k gauges then Hashtbl.replace into.values k v
          else
            let before =
              match Hashtbl.find_opt into.values k with Some x -> x | None -> 0
            in
            Hashtbl.replace into.values k (before + v))
        cs;
      List.iter (fun k -> Hashtbl.replace into.gauge_names k ()) gauges;
      List.iter
        (fun (k, h) ->
          match Hashtbl.find_opt into.hists k with
          | Some dst -> Histogram.merge_into ~into:dst h
          | None -> Hashtbl.replace into.hists k h)
        hs)

let span_count r name =
  List.length (List.filter (fun s -> String.equal s.name name) (spans r))

let total_ns r name =
  List.fold_left
    (fun acc s ->
      if String.equal s.name name && s.dur_ns >= 0L then Int64.add acc s.dur_ns
      else acc)
    0L (spans r)

(* --- rendering ----------------------------------------------------- *)

let pp_ns ns =
  let ns = Int64.to_float ns in
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.3f s" (ns /. 1e9)

let summary_table r =
  let buf = Buffer.create 512 in
  let ss = spans r in
  if ss <> [] then begin
    let root_ns =
      List.fold_left
        (fun acc s -> if s.depth = 0 && s.dur_ns > 0L then Int64.add acc s.dur_ns else acc)
        0L ss
    in
    let t =
      Table.create
        [ ("span", Table.Left); ("wall", Table.Right); ("%", Table.Right);
          ("counters", Table.Left) ]
    in
    List.iter
      (fun s ->
        let pct =
          if root_ns > 0L && s.dur_ns >= 0L then
            Printf.sprintf "%.1f"
              (100.0 *. Int64.to_float s.dur_ns /. Int64.to_float root_ns)
          else "-"
        in
        let cs =
          String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.counters)
        in
        Table.add_row t
          [
            String.make (2 * s.depth) ' ' ^ s.name;
            (if s.dur_ns >= 0L then pp_ns s.dur_ns else "(open)");
            pct;
            cs;
          ])
      ss;
    Buffer.add_string buf (Table.to_string t);
    Buffer.add_char buf '\n'
  end;
  (match counters r with
  | [] -> ()
  | cs ->
    if ss <> [] then Buffer.add_char buf '\n';
    let t = Table.create [ ("counter", Table.Left); ("value", Table.Right) ] in
    List.iter (fun (k, v) -> Table.add_row t [ k; string_of_int v ]) cs;
    Buffer.add_string buf (Table.to_string t);
    Buffer.add_char buf '\n');
  (match histograms r with
  | [] -> ()
  | hs ->
    Buffer.add_char buf '\n';
    let t =
      Table.create
        [ ("histogram", Table.Left); ("count", Table.Right); ("p50", Table.Right);
          ("p90", Table.Right); ("p99", Table.Right); ("max", Table.Right) ]
    in
    List.iter
      (fun (k, h) ->
        Table.add_row t
          [
            k;
            string_of_int (Histogram.count h);
            pp_ns (Int64.of_int (Histogram.quantile h 0.5));
            pp_ns (Int64.of_int (Histogram.quantile h 0.9));
            pp_ns (Int64.of_int (Histogram.quantile h 0.99));
            pp_ns (Int64.of_int (Histogram.max_value h));
          ])
      hs;
    Buffer.add_string buf (Table.to_string t);
    Buffer.add_char buf '\n');
  Buffer.contents buf

(* --- Prometheus-style text exposition ------------------------------ *)

(* Metric names may only contain [a-zA-Z0-9_:]; everything else (the
   registry uses dots) maps to '_', and a leading digit gets a '_'
   prefix. All names carry the "bistpath_" namespace. *)
let prometheus_name name =
  let buf = Buffer.create (String.length name + 9) in
  Buffer.add_string buf "bistpath_";
  (if String.length name > 0 && name.[0] >= '0' && name.[0] <= '9' then
     Buffer.add_char buf '_');
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prometheus_text r =
  let buf = Buffer.create 1024 in
  let header name kind orig =
    Buffer.add_string buf (Printf.sprintf "# HELP %s bistpath metric %s\n" name orig);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (k, v) ->
      if is_gauge r k then begin
        let name = prometheus_name k in
        header name "gauge" k;
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      end
      else begin
        let name = prometheus_name k ^ "_total" in
        header name "counter" k;
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      end)
    (counters r);
  List.iter
    (fun (k, h) ->
      let name = prometheus_name k in
      header name "summary" k;
      List.iter
        (fun q ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%g\"} %d\n" name q (Histogram.quantile h q)))
        [ 0.5; 0.9; 0.99 ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name (Histogram.sum h));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name (Histogram.count h)))
    (histograms r);
  Buffer.contents buf

(* --- JSON ---------------------------------------------------------- *)

let json_obj_of_pairs pairs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) v) pairs)
  ^ "}"

let json_attrs attrs =
  json_obj_of_pairs
    (List.map (fun (k, v) -> (k, "\"" ^ Json.escape v ^ "\"")) attrs)

let chrome_trace_json r =
  let ss = Array.of_list (spans r) in
  let evs = track_events r in
  let insts = instants r in
  let gsamples = gauge_samples r in
  let n = Array.length ss in
  let t0 =
    let start =
      if n > 0 then ss.(0).start_ns
      else
        match (evs, insts, gsamples) with
        | e :: _, _, _ -> e.ev_start_ns
        | [], (_, _, ts) :: _, _ -> ts
        | [], [], (_, ts, _) :: _ -> ts
        | [], [], [] -> 0L
    in
    let t0 = Array.fold_left (fun acc s -> min acc s.start_ns) start ss in
    let t0 = List.fold_left (fun acc e -> min acc e.ev_start_ns) t0 evs in
    let t0 = List.fold_left (fun acc (_, _, ts) -> min acc ts) t0 insts in
    List.fold_left (fun acc (_, ts, _) -> min acc ts) t0 gsamples
  in
  let trace_end =
    let te =
      Array.fold_left
        (fun acc s ->
          if s.dur_ns >= 0L then max acc (Int64.add s.start_ns s.dur_ns) else acc)
        t0 ss
    in
    let te =
      List.fold_left
        (fun acc e -> max acc (Int64.add e.ev_start_ns e.ev_dur_ns))
        te evs
    in
    let te = List.fold_left (fun acc (_, _, ts) -> max acc ts) te insts in
    List.fold_left (fun acc (_, ts, _) -> max acc ts) te gsamples
  in
  let end_of s = if s.dur_ns >= 0L then Int64.add s.start_ns s.dur_ns else trace_end in
  let us ns = Printf.sprintf "%.3f" (Int64.to_float (Int64.sub ns t0) /. 1e3) in
  let children = Array.make n [] in
  let roots = ref [] in
  for i = n - 1 downto 0 do
    match ss.(i).parent with
    | Some p -> children.(p) <- i :: children.(p)
    | None -> roots := i :: !roots
  done;
  let events = Buffer.create 1024 in
  let emit obj =
    if Buffer.length events > 0 then Buffer.add_string events ",\n";
    Buffer.add_string events obj
  in
  let rec walk i =
    let s = ss.(i) in
    emit
      (json_obj_of_pairs
         [
           ("ph", "\"B\"");
           ("name", "\"" ^ Json.escape s.name ^ "\"");
           ("cat", "\"bistpath\"");
           ("pid", "1");
           ("tid", "1");
           ("ts", us s.start_ns);
           ("args", json_attrs s.attrs);
         ]);
    List.iter walk children.(i);
    emit
      (json_obj_of_pairs
         [
           ("ph", "\"E\"");
           ("name", "\"" ^ Json.escape s.name ^ "\"");
           ("cat", "\"bistpath\"");
           ("pid", "1");
           ("tid", "1");
           ("ts", us (end_of s));
         ])
  in
  List.iter walk !roots;
  (* Timed events on explicit tracks (worker lanes): complete "X" events
     whose tid selects the Perfetto lane. Track 1 is the main domain —
     its chunk events interleave with the span tree above. *)
  List.iter
    (fun e ->
      emit
        (json_obj_of_pairs
           [
             ("ph", "\"X\"");
             ("name", "\"" ^ Json.escape e.ev_name ^ "\"");
             ("cat", "\"bistpath\"");
             ("pid", "1");
             ("tid", string_of_int e.track);
             ("ts", us e.ev_start_ns);
             ("dur", Printf.sprintf "%.3f" (Int64.to_float e.ev_dur_ns /. 1e3));
             ("args", json_attrs e.ev_attrs);
           ]))
    evs;
  (* Instant events (budget trips, ...): global-scope "i" marks. *)
  List.iter
    (fun (name, attrs, ts) ->
      emit
        (json_obj_of_pairs
           [
             ("ph", "\"i\"");
             ("s", "\"g\"");
             ("name", "\"" ^ Json.escape name ^ "\"");
             ("cat", "\"bistpath\"");
             ("pid", "1");
             ("tid", "1");
             ("ts", us ts);
             ("args", json_attrs attrs);
           ]))
    insts;
  (* Gauge time series: one "C" (counter-track) event per [set] call, so
     Perfetto draws queue depth / breaker state / live workers as
     value tracks alongside the spans. *)
  List.iter
    (fun (name, ts, v) ->
      emit
        (json_obj_of_pairs
           [
             ("ph", "\"C\"");
             ("name", "\"" ^ Json.escape name ^ "\"");
             ("pid", "1");
             ("tid", "1");
             ("ts", us ts);
             ("args", json_obj_of_pairs [ ("value", string_of_int v) ]);
           ]))
    gsamples;
  (* Final values of every counter, stamped at the trace end. *)
  List.iter
    (fun (k, v) ->
      emit
        (json_obj_of_pairs
           [
             ("ph", "\"C\"");
             ("name", "\"" ^ Json.escape k ^ "\"");
             ("pid", "1");
             ("tid", "1");
             ("ts", us trace_end);
             ("args", json_obj_of_pairs [ ("value", string_of_int v) ]);
           ]))
    (counters r);
  "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n" ^ Buffer.contents events
  ^ "\n]}\n"

let write_file path contents = Bistpath_util.Atomic_io.write_file path contents
