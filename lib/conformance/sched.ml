(** Realizing the explicit thread schedules of {!Dr_lang.Gen.schedule}
    as a {!Dr_machine.Driver} policy.

    A schedule is an RLE list of [(tid hint, quantum)] steps.  Each hint
    is realized as: step the hinted thread if runnable, else the next
    runnable tid at or after it (wrapping) — deterministic given the
    machine state, so a program plus a schedule fully determines a run.
    When the schedule runs out before the program terminates, the picker
    falls back to round-robin with quantum 1, which is also
    deterministic.  Unlike {!Dr_machine.Driver.Scripted}, a hinted
    schedule can never diverge: blocked hints degrade to the next
    runnable thread instead of raising. *)

open Dr_machine

type t = (int * int) array

(** A fresh driver policy realizing [sched].  The returned policy owns
    its cursor: use one policy per run. *)
let policy (sched : t) : Driver.policy =
  let pos = ref 0 and left = ref 0 and hint = ref 0 in
  Driver.Custom
    (fun m ~last ->
      ignore last;
      if !left <= 0 then
        if !pos < Array.length sched then begin
          let h, q = sched.(!pos) in
          incr pos;
          hint := h;
          left := max q 1
        end
        else begin
          (* schedule exhausted: deterministic round-robin fallback *)
          hint := !hint + 1;
          left := 1
        end;
      decr left;
      match Driver.next_runnable m !hint with -1 -> None | t -> Some t)

(* ---- JSON round-trip for corpus files ---- *)

let to_json (sched : t) : Dr_util.Json.t =
  Dr_util.Json.List
    (Array.to_list sched
    |> List.map (fun (tid, q) ->
           Dr_util.Json.List [ Dr_util.Json.int tid; Dr_util.Json.int q ]))

let of_json (j : Dr_util.Json.t) : (t, string) result =
  match Dr_util.Json.to_list j with
  | None -> Error "schedule: expected a list"
  | Some items ->
    let step = function
      | Dr_util.Json.List [ Dr_util.Json.Num tid; Dr_util.Json.Num q ] ->
        Ok (int_of_float tid, int_of_float q)
      | _ -> Error "schedule: expected [tid, quantum] pairs"
    in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | x :: rest -> (
        match step x with Ok p -> go (p :: acc) rest | Error e -> Error e)
    in
    go [] items
