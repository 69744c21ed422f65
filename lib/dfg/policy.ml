type t = {
  allocate_inputs : bool;
  carried : (string * string) list;
}

let default = { allocate_inputs = true; carried = [] }

let dedicated_io = { allocate_inputs = false; carried = [] }

let with_carried carried = { allocate_inputs = false; carried }

let fail fmt = Format.kasprintf invalid_arg fmt

let validate dfg t =
  if t.carried <> [] && t.allocate_inputs then
    fail "Policy: carried variables require allocate_inputs = false";
  let targets = List.map snd t.carried in
  if List.length (List.sort_uniq compare targets) <> List.length targets then
    fail "Policy: two results carried into the same input register";
  let sources = List.map fst t.carried in
  if List.length (List.sort_uniq compare sources) <> List.length sources then
    fail "Policy: a result carried into two input registers";
  List.iter
    (fun (w, v) ->
      (match Dfg.producer dfg w with
      | None -> fail "Policy: carried result %s is not produced by any operation" w
      | Some producer ->
        (* The write-back overwrites the input's register at the end of
           the producing step; every read of the input must be over by
           then (loop-carried timing). *)
        let produced_at = Dfg.cstep dfg producer.Op.id in
        List.iter
          (fun (consumer : Op.t) ->
            let used_at = Dfg.cstep dfg consumer.id in
            if used_at > produced_at then
              fail "Policy: %s still reads %s in step %d after %s overwrites it in step %d"
                consumer.id v used_at w produced_at)
          (Dfg.consumers dfg v));
      if not (List.mem v dfg.Dfg.inputs) then
        fail "Policy: carry target %s is not a primary input" v;
      if Dfg.consumers dfg v = [] then
        fail "Policy: carry target %s is never read" v)
    t.carried

let carried_into t w = List.assoc_opt w t.carried

let allocatable t ~produced ~read v =
  if produced then carried_into t v = None else t.allocate_inputs && read
