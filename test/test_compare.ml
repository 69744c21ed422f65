(* The bench regression gate (bench/compare.exe): baseline round-trip,
   tolerance maths, median-ratio machine calibration, and exit codes. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let compare_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bench" "compare.exe")

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bistpath-test-compare-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let write path text = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let run_compare_to path args =
  let out = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process compare_exe
      (Array.of_list (compare_exe :: args))
      Unix.stdin out out
  in
  Unix.close out;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let run_compare args = run_compare_to "/dev/null" args

(* Synthetic BENCH files shaped like bench/main.exe output. [scale]
   multiplies every timing, so scale=2.0 models a uniformly slower
   machine; [perturb] additionally blows up one service scenario. *)
let write_bench_files dir ~scale ?(perturb = false) () =
  let ns x = int_of_float (x *. scale) in
  let in_dir f = Filename.concat dir f in
  write (in_dir "BENCH_telemetry.json")
    (Printf.sprintf
       {|[{"bench":"ex1","stage":"alloc","ns":%d},
          {"bench":"ex1","stage":"alloc","ns":%d},
          {"bench":"Paulin","stage":"rtl","ns":%d}]|}
       (ns 40_000.0) (ns 20_000.0) (ns 90_000.0));
  write (in_dir "BENCH_service.json")
    (Printf.sprintf {|[{"scenario":"clean","jobs":1,"wall_ns":%d}]|}
       (ns (if perturb then 2_000_000.0 else 100_000.0)));
  write (in_dir "BENCH_cache.json")
    (Printf.sprintf
       {|[{"bench":"ex1","cold_ns":%d,"warm_ns":%d,"speedup":10.0,"warm_hits":4,"warm_misses":0}]|}
       (ns 500_000.0) (ns 50_000.0))

let gate_identical_and_perturbed () =
  let d = tmpdir () in
  let base = Filename.concat d "base.json" in
  write_bench_files d ~scale:1.0 ();
  check Alcotest.int "--update exits 0" 0
    (run_compare [ "--dir"; d; "--baseline"; base; "--update" ]);
  check Alcotest.bool "baseline written" true (Sys.file_exists base);
  check Alcotest.int "identical run passes" 0
    (run_compare [ "--dir"; d; "--baseline"; base; "--absolute" ]);
  (* one scenario blows up 20x: must trip the gate even in calibrated
     mode, since the median ratio of its unchanged peers stays ~1 *)
  write_bench_files d ~scale:1.0 ~perturb:true ();
  check Alcotest.int "perturbed run fails (absolute)" 1
    (run_compare [ "--dir"; d; "--baseline"; base; "--absolute" ]);
  check Alcotest.int "perturbed run fails (calibrated)" 1
    (run_compare [ "--dir"; d; "--baseline"; base ]);
  rm_rf d

let calibration_absorbs_machine_factor () =
  let d = tmpdir () in
  let base = Filename.concat d "base.json" in
  write_bench_files d ~scale:1.0 ();
  check Alcotest.int "--update exits 0" 0
    (run_compare [ "--dir"; d; "--baseline"; base; "--update" ]);
  (* everything uniformly 2x slower: a different machine, not a
     regression -- calibrated mode passes, absolute mode fails *)
  write_bench_files d ~scale:2.0 ();
  check Alcotest.int "uniform 2x passes calibrated" 0
    (run_compare [ "--dir"; d; "--baseline"; base ]);
  check Alcotest.int "uniform 2x fails absolute" 1
    (run_compare [ "--dir"; d; "--baseline"; base; "--absolute" ]);
  (* a generous tolerance admits it even in absolute mode *)
  check Alcotest.int "tolerance 150% admits 2x" 0
    (run_compare
       [ "--dir"; d; "--baseline"; base; "--absolute";
         "--tolerance"; "150" ]);
  rm_rf d

let usage_and_io_errors_exit_2 () =
  let d = tmpdir () in
  check Alcotest.int "unknown flag" 2 (run_compare [ "--no-such-flag" ]);
  check Alcotest.int "bad tolerance" 2 (run_compare [ "--tolerance"; "lots" ]);
  check Alcotest.int "missing BENCH files" 2
    (run_compare [ "--dir"; d; "--baseline"; Filename.concat d "base.json" ]);
  write_bench_files d ~scale:1.0 ();
  check Alcotest.int "missing baseline" 2
    (run_compare [ "--dir"; d; "--baseline"; Filename.concat d "nope.json" ]);
  write (Filename.concat d "garbage.json") "{not json";
  check Alcotest.int "corrupt baseline" 2
    (run_compare [ "--dir"; d; "--baseline"; Filename.concat d "garbage.json" ]);
  rm_rf d

(* A record the baseline has no key for is skipped, by name: a stale
   baseline can never hide a benchmark silently. *)
let unbaselined_records_are_listed () =
  let d = tmpdir () in
  let base = Filename.concat d "base.json" in
  write_bench_files d ~scale:1.0 ();
  write base
    {|{"entries":{"telemetry/ex1/alloc":60000,"telemetry/Paulin/rtl":90000,"service/clean":100000}}|};
  let out = Filename.concat d "out.txt" in
  check Alcotest.int "still passes" 0 (run_compare_to out [ "--dir"; d; "--baseline"; base ]);
  let lines =
    In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n'
    |> List.filter (fun l -> String.length l > 8 && String.sub l 0 8 = "  note: ")
  in
  check (Alcotest.list Alcotest.string) "each unbaselined record noted"
    [ "  note: cache/ex1/cold has no baseline; not compared";
      "  note: cache/ex1/warm has no baseline; not compared" ]
    lines;
  rm_rf d

let suite =
  [
    case "gate: identical passes, perturbed entry fails" gate_identical_and_perturbed;
    case "gate: median calibration absorbs a uniform machine factor"
      calibration_absorbs_machine_factor;
    case "gate: usage and I/O errors exit 2" usage_and_io_errors_exit_2;
    case "gate: a record with no baseline key is listed" unbaselined_records_are_listed;
  ]
