(* A fixed reference kernel, timed between the slices of every measured
   window to read the machine's speed at that moment. The machine this
   benchmark was built on shares its cores: the same work took from 1x to
   1.8x the CPU time from one minute to the next. Host CPU times are
   reported scaled by how fast this kernel ran alongside them, so they
   follow the code, not the moment.

   The kernel does the kind of work the simulator does (hashing string
   keys, building and searching a map, allocating short-lived values, and
   reading memory well beyond the caches) but runs none of the
   repository's code, so a change to the simulator leaves it alone. It
   allocates less than the minor heap holds, so when it starts on an
   empty minor heap it never runs the collector, which would charge it
   with the simulator's collection work. Of the kernels tried, this mix
   tracked the simulator best: over five seeds, CPU per commit scaled by
   it spread 4-7% (interquartile range over median) where raw CPU spread
   10-15%; the allocating half alone spread 6-10%, the memory half alone
   8-13%. *)

module M = Map.Make (String)

let keys = Array.init 1024 (fun i -> Printf.sprintf "tbl.row.%d" (i * 7919))

(* 32 MB outside the OCaml heap, so that the collector never scans it:
   a random cycle to chase. *)
let table_bits = 22

let table =
  let mask = (1 lsl table_bits) - 1 in
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl table_bits) (fun i ->
      (i * 2654435761) land mask)

let run () =
  let h = Hashtbl.create 256 in
  Array.iteri (fun i k -> if i land 3 = 0 then Hashtbl.replace h k (ref i)) keys;
  let m = ref M.empty and s = ref 0 in
  for round = 1 to 3 do
    Array.iteri
      (fun i k ->
        (match Hashtbl.find_opt h k with Some r -> s := !s + !r | None -> ());
        if (i + round) land 1 = 0 then m := M.add k (float_of_int i, round) !m)
      keys
  done;
  M.iter (fun _ (f, r) -> s := !s + int_of_float f + r) !m;
  let j = ref 12345 in
  for _ = 1 to 4000 do
    j := Bigarray.Array1.unsafe_get table !j;
    s := !s + !j
  done;
  ignore (Sys.opaque_identity !s)

(* CPU seconds one call took, typically, between the slices of the
   benchmark's passes on the machine it was built on (a 2-core x86-64
   container): the unit that scaled times are given in. *)
let nominal_s = 1.4e-3

(* [cpu] seconds, measured while [calls] calls of the kernel took
   [ref_cpu] seconds, scaled to the reference machine's speed. *)
let scale ~cpu ~ref_cpu ~calls =
  if ref_cpu <= 0. then cpu else cpu *. (float_of_int calls *. nominal_s) /. ref_cpu
