type case =
  | Disjoint
  | Source_is_dest
  | Common_dest
  | Common_source
  | Common_both

let case_number = function
  | Disjoint -> 1
  | Source_is_dest -> 2
  | Common_dest -> 3
  | Common_source -> 4
  | Common_both -> 5

let describe = function
  | Disjoint -> "different source and destination modules"
  | Source_is_dest -> "source module of one is destination of the other"
  | Common_dest -> "one destination module in common"
  | Common_source -> "one source module in common"
  | Common_both -> "common source and common destination module"

let classify ctx u v =
  let common a b = List.exists (fun x -> List.mem x b) a in
  let su = Sharing.source_units ctx u and sv = Sharing.source_units ctx v in
  let du = Sharing.dest_units ctx u and dv = Sharing.dest_units ctx v in
  let cs = common su sv and cd = common du dv in
  if cs && cd then Common_both
  else if cd then Common_dest
  else if cs then Common_source
  else if common su dv || common sv du then Source_is_dest
  else Disjoint
