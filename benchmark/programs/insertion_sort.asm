; insertion sort the n words at word 1, ascending, in place; word 0
; holds n. The inner loop's trip count depends on the data
        li   r7, 0
        lw   r2, 0(r7)
        addi r2, r2, 1      ; end
        li   r1, 2          ; i
        li   r8, 1          ; first element
outer:
        bgeu r1, r2, done
        lw   r3, (r1)       ; key
        add  r4, r1, r7     ; j = i
inner:
        beq  r4, r8, place
        subi r5, r4, 1
        lw   r6, (r5)
        bgeu r3, r6, place  ; key >= a[j-1]: stop
        sw   r6, (r4)       ; shift right
        add  r4, r5, r7
        j    inner
place:
        sw   r3, (r4)
        addi r1, r1, 1
        j    outer
done:
        halt
