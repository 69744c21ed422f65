type policy = { max_attempts : int; retry_base_ms : float }
type state = { attempts : int; terminal : bool }

let fresh = { attempts = 0; terminal = false }

type outcome = Completed of string option | Invalid of string | Failed of string

type event =
  | Start
  | Finished of outcome
  | Interrupted
  | Worker_died of string
  | Resume

type decision =
  | Commit of string option
  | Retry of { error : string; backoff_ns : int64 }
  | Give_up of { error : string; attempt_failed : bool }
  | Pending

let backoff_ns policy ~attempt ~jitter =
  let expo = Float.of_int (1 lsl min (attempt - 1) 10) in
  Int64.of_float (policy.retry_base_ms *. 1e6 *. expo *. (0.5 +. jitter ()))

let step policy ?(jitter = Fun.const 0.5) s event =
  let spent = (not s.terminal) && s.attempts >= policy.max_attempts in
  let give_up error ~attempt_failed =
    ({ s with terminal = true }, Give_up { error; attempt_failed })
  in
  match event with
  | Start -> ({ s with attempts = s.attempts + 1 }, Pending)
  | Interrupted -> ({ s with attempts = max 0 (s.attempts - 1) }, Pending)
  | Finished (Completed reason) -> ({ s with terminal = true }, Commit reason)
  | Finished (Invalid error) -> give_up error ~attempt_failed:false
  | Finished (Failed error) when spent -> give_up error ~attempt_failed:true
  | Finished (Failed error) ->
    (s, Retry { error; backoff_ns = backoff_ns policy ~attempt:s.attempts ~jitter })
  | Worker_died cause when spent ->
    give_up ~attempt_failed:false
      (Printf.sprintf "worker died (%s) on final attempt %d of %d" cause s.attempts
         policy.max_attempts)
  | Resume when spent ->
    give_up "retry budget exhausted before the previous shutdown" ~attempt_failed:false
  | Worker_died _ | Resume -> (s, Pending)
