; y = A·x for an m×m row-major A; word 0 holds m, A starts at word 1,
; x follows A and y follows x
        li   r7, 0
        lw   r3, 0(r7)      ; rows remaining
        mul  r10, r3, r3
        addi r10, r10, 1    ; &x
        add  r2, r10, r3    ; &y walker
        add  r11, r3, r7    ; m
        li   r1, 1          ; &A walker
row:
        add  r4, r10, r7    ; &x walker
        add  r5, r11, r7    ; cols remaining
        li   r6, 0          ; acc
col:
        lw   r8, (r1)
        lw   r9, (r4)
        mul  r8, r8, r9
        add  r6, r6, r8
        addi r1, r1, 1
        addi r4, r4, 1
        subi r5, r5, 1
        bne  r5, r7, col
        sw   r6, (r2)
        addi r2, r2, 1
        subi r3, r3, 1
        bne  r3, r7, row
        halt
